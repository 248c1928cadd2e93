//! The 19-workload taxonomy of Table 4.

use std::fmt;

/// Application types from the paper's methodology (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApplicationType {
    /// Latency-sensitive request/response services.
    OnlineService,
    /// Long-running batch computations.
    OfflineAnalytics,
    /// Interactive analytic queries.
    RealtimeAnalytics,
}

impl fmt::Display for ApplicationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ApplicationType::OnlineService => "Online Service",
            ApplicationType::OfflineAnalytics => "Offline Analytics",
            ApplicationType::RealtimeAnalytics => "Realtime Analytics",
        })
    }
}

/// The nineteen workloads, in the paper's Table 6 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum WorkloadId {
    Sort,
    Grep,
    WordCount,
    Bfs,
    Read,
    Write,
    Scan,
    SelectQuery,
    AggregateQuery,
    JoinQuery,
    NutchServer,
    PageRank,
    Index,
    OlioServer,
    KMeans,
    ConnectedComponents,
    RubisServer,
    CollaborativeFiltering,
    NaiveBayes,
}

impl WorkloadId {
    /// All nineteen, Table 6 order.
    pub const ALL: [WorkloadId; 19] = [
        WorkloadId::Sort,
        WorkloadId::Grep,
        WorkloadId::WordCount,
        WorkloadId::Bfs,
        WorkloadId::Read,
        WorkloadId::Write,
        WorkloadId::Scan,
        WorkloadId::SelectQuery,
        WorkloadId::AggregateQuery,
        WorkloadId::JoinQuery,
        WorkloadId::NutchServer,
        WorkloadId::PageRank,
        WorkloadId::Index,
        WorkloadId::OlioServer,
        WorkloadId::KMeans,
        WorkloadId::ConnectedComponents,
        WorkloadId::RubisServer,
        WorkloadId::CollaborativeFiltering,
        WorkloadId::NaiveBayes,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadId::Sort => "Sort",
            WorkloadId::Grep => "Grep",
            WorkloadId::WordCount => "WordCount",
            WorkloadId::Bfs => "BFS",
            WorkloadId::Read => "Read",
            WorkloadId::Write => "Write",
            WorkloadId::Scan => "Scan",
            WorkloadId::SelectQuery => "Select Query",
            WorkloadId::AggregateQuery => "Aggregate Query",
            WorkloadId::JoinQuery => "Join Query",
            WorkloadId::NutchServer => "Nutch Server",
            WorkloadId::PageRank => "PageRank",
            WorkloadId::Index => "Index",
            WorkloadId::OlioServer => "Olio Server",
            WorkloadId::KMeans => "K-means",
            WorkloadId::ConnectedComponents => "Connected Components",
            WorkloadId::RubisServer => "Rubis Server",
            WorkloadId::CollaborativeFiltering => "Collaborative Filtering",
            WorkloadId::NaiveBayes => "Naive Bayes",
        }
    }

    /// Application type (Table 4).
    pub fn application_type(&self) -> ApplicationType {
        use WorkloadId::*;
        match self {
            Read | Write | Scan | NutchServer | OlioServer | RubisServer => {
                ApplicationType::OnlineService
            }
            SelectQuery | AggregateQuery | JoinQuery => ApplicationType::RealtimeAnalytics,
            _ => ApplicationType::OfflineAnalytics,
        }
    }

    /// The software stack the paper runs this workload on (Table 6).
    pub fn paper_stack(&self) -> &'static str {
        use WorkloadId::*;
        match self {
            Sort
            | Grep
            | WordCount
            | PageRank
            | Index
            | KMeans
            | ConnectedComponents
            | CollaborativeFiltering
            | NaiveBayes => "Hadoop",
            Bfs => "MPI",
            Read | Write | Scan => "HBase",
            SelectQuery | AggregateQuery | JoinQuery => "Hive",
            NutchServer => "Hadoop (Nutch)",
            OlioServer | RubisServer => "MySQL",
        }
    }

    /// The input description of the paper's Table 6 (at multiplier 1).
    pub fn paper_input(&self) -> &'static str {
        use WorkloadId::*;
        match self {
            Sort | Grep | WordCount | Read | Write | Scan | SelectQuery | AggregateQuery
            | JoinQuery | NaiveBayes | KMeans => "32 GB data",
            Bfs | ConnectedComponents | CollaborativeFiltering => "2^15 vertices",
            PageRank | Index => "10^6 pages",
            NutchServer | OlioServer | RubisServer => "100 req/s",
        }
    }

    /// The application scenario grouping of Table 4.
    pub fn scenario(&self) -> &'static str {
        use WorkloadId::*;
        match self {
            Sort | Grep | WordCount | Bfs => "Micro Benchmarks",
            Read | Write | Scan => "Basic Datastore Operations (Cloud OLTP)",
            SelectQuery | AggregateQuery | JoinQuery => "Relational Query",
            NutchServer | PageRank | Index => "Search Engine",
            OlioServer | KMeans | ConnectedComponents => "Social Network",
            RubisServer | CollaborativeFiltering | NaiveBayes => "E-commerce",
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_workloads() {
        assert_eq!(WorkloadId::ALL.len(), 19);
        let unique: std::collections::HashSet<_> = WorkloadId::ALL.iter().collect();
        assert_eq!(unique.len(), 19);
    }

    #[test]
    fn type_partition_matches_table4() {
        use ApplicationType::*;
        let count = |t: ApplicationType| {
            WorkloadId::ALL.iter().filter(|w| w.application_type() == t).count()
        };
        assert_eq!(count(OnlineService), 6);
        assert_eq!(count(RealtimeAnalytics), 3);
        assert_eq!(count(OfflineAnalytics), 10);
    }

    #[test]
    fn scenarios_cover_table4_rows() {
        let scenarios: std::collections::HashSet<_> =
            WorkloadId::ALL.iter().map(|w| w.scenario()).collect();
        assert_eq!(scenarios.len(), 6);
    }

    #[test]
    fn names_and_stacks_nonempty() {
        for w in WorkloadId::ALL {
            assert!(!w.name().is_empty());
            assert!(!w.paper_stack().is_empty());
            assert!(!w.paper_input().is_empty());
        }
    }
}
