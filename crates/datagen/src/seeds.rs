//! Descriptors for the six real-world seed data sets of the paper's
//! Table 2, with the fitted model parameters our generators use.
//!
//! The paper collects six seeds spanning three data types (structured,
//! semi-structured, unstructured) and three sources (text, graph, table).
//! We embed their published sizes plus the fitted parameters the
//! generators target ([`SeedDataset::zipf_exponent`], and the graph seeds'
//! average degrees); [`crate::stats`] measures the same statistics on a
//! generated sample, so tests can check a generator reproduces its
//! seed's shape.

use std::fmt;

/// Which of the paper's six seeds a descriptor stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedKind {
    /// Seed 1: 4,300,000 English Wikipedia articles (unstructured text).
    WikipediaEntries,
    /// Seed 2: 7,911,684 Amazon movie reviews (semi-structured text).
    AmazonMovieReviews,
    /// Seed 3: Google web graph, 875,713 nodes / 5,105,039 edges
    /// (unstructured, directed graph).
    GoogleWebGraph,
    /// Seed 4: Facebook social graph, 4,039 nodes / 88,234 edges
    /// (unstructured, undirected graph).
    FacebookSocialGraph,
    /// Seed 5: proprietary e-commerce transaction tables
    /// (structured; ORDER 4 cols × 38,658 rows, ITEM 6 cols × 242,735 rows).
    EcommerceTransactions,
    /// Seed 6: 278,956 ProfSearch person resumés (semi-structured).
    ProfSearchResumes,
}

impl SeedKind {
    /// All six seeds in Table 2 order.
    pub const ALL: [SeedKind; 6] = [
        SeedKind::WikipediaEntries,
        SeedKind::AmazonMovieReviews,
        SeedKind::GoogleWebGraph,
        SeedKind::FacebookSocialGraph,
        SeedKind::EcommerceTransactions,
        SeedKind::ProfSearchResumes,
    ];
}

impl fmt::Display for SeedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SeedKind::WikipediaEntries => "Wikipedia Entries",
            SeedKind::AmazonMovieReviews => "Amazon Movie Reviews",
            SeedKind::GoogleWebGraph => "Google Web Graph",
            SeedKind::FacebookSocialGraph => "Facebook Social Network",
            SeedKind::EcommerceTransactions => "E-commerce Transaction Data",
            SeedKind::ProfSearchResumes => "ProfSearch Person Resumes",
        };
        f.write_str(s)
    }
}

/// Data type taxonomy from the paper's methodology (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Fixed-schema relational data.
    Structured,
    /// Tagged/keyed but flexible records.
    SemiStructured,
    /// Free text or raw graphs.
    Unstructured,
}

/// Data source taxonomy from the paper's methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Natural-language text.
    Text,
    /// Vertices and edges.
    Graph,
    /// Rows and columns.
    Table,
}

/// One seed data set: published size plus fitted model parameters.
#[derive(Debug, Clone)]
pub struct SeedDataset {
    /// Which seed this is.
    pub kind: SeedKind,
    /// Data type dimension.
    pub data_type: DataType,
    /// Data source dimension.
    pub source: DataSource,
    /// The size description printed in Table 2.
    pub size_description: &'static str,
    /// Workloads that consume this seed (paper Section 4.2).
    pub used_by: &'static [&'static str],
    /// Zipf exponent for vocabularies / key popularity fitted to the
    /// seed's published statistics (0 when not applicable).
    pub zipf_exponent: f64,
    /// Approximate record count in the real seed.
    pub records: u64,
}

/// The six seed descriptors, Table 2 order.
pub const SEED_DATASETS: [SeedDataset; 6] = [
    SeedDataset {
        kind: SeedKind::WikipediaEntries,
        data_type: DataType::Unstructured,
        source: DataSource::Text,
        size_description: "4,300,000 English articles",
        used_by: &["Sort", "Grep", "WordCount", "Index"],
        zipf_exponent: 1.0, // classic Zipf's law for English word frequency
        records: 4_300_000,
    },
    SeedDataset {
        kind: SeedKind::AmazonMovieReviews,
        data_type: DataType::SemiStructured,
        source: DataSource::Text,
        size_description: "7,911,684 reviews",
        used_by: &["Naive Bayes", "Collaborative Filtering"],
        zipf_exponent: 0.9, // product popularity skew
        records: 7_911_684,
    },
    SeedDataset {
        kind: SeedKind::GoogleWebGraph,
        data_type: DataType::Unstructured,
        source: DataSource::Graph,
        size_description: "875,713 nodes, 5,105,039 edges",
        used_by: &["PageRank"],
        zipf_exponent: 0.0,
        records: 875_713,
    },
    SeedDataset {
        kind: SeedKind::FacebookSocialGraph,
        data_type: DataType::Unstructured,
        source: DataSource::Graph,
        size_description: "4,039 nodes, 88,234 edges",
        used_by: &["Connected Components"],
        zipf_exponent: 0.0,
        records: 4_039,
    },
    SeedDataset {
        kind: SeedKind::EcommerceTransactions,
        data_type: DataType::Structured,
        source: DataSource::Table,
        size_description: "ORDER: 4 cols x 38,658 rows; ITEM: 6 cols x 242,735 rows",
        used_by: &["Select Query", "Aggregate Query", "Join Query"],
        zipf_exponent: 0.8, // buyer/goods popularity skew
        records: 38_658,
    },
    SeedDataset {
        kind: SeedKind::ProfSearchResumes,
        data_type: DataType::SemiStructured,
        source: DataSource::Table,
        size_description: "278,956 resumes",
        used_by: &["Read", "Write", "Scan"],
        zipf_exponent: 0.7, // affiliation popularity skew
        records: 278_956,
    },
];

/// Looks up the descriptor for `kind`.
pub fn seed(kind: SeedKind) -> &'static SeedDataset {
    SEED_DATASETS.iter().find(|s| s.kind == kind).expect("all kinds are present")
}

/// Average edges per node of the Google web graph seed (≈5.83).
pub fn google_web_avg_degree() -> f64 {
    5_105_039.0 / 875_713.0
}

/// Average edges per node of the Facebook seed (≈21.8, undirected).
pub fn facebook_avg_degree() -> f64 {
    88_234.0 / 4_039.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_seeds_cover_all_types_and_sources() {
        use std::collections::HashSet;
        let types: HashSet<_> = SEED_DATASETS.iter().map(|s| s.data_type).collect();
        let sources: HashSet<_> = SEED_DATASETS.iter().map(|s| s.source).collect();
        assert_eq!(types.len(), 3, "structured, semi-structured, unstructured");
        assert_eq!(sources.len(), 3, "text, graph, table");
    }

    #[test]
    fn lookup_by_kind() {
        for kind in SeedKind::ALL {
            assert_eq!(seed(kind).kind, kind);
        }
    }

    #[test]
    fn table2_sizes() {
        assert_eq!(seed(SeedKind::WikipediaEntries).records, 4_300_000);
        assert_eq!(seed(SeedKind::GoogleWebGraph).records, 875_713);
        assert_eq!(seed(SeedKind::FacebookSocialGraph).records, 4_039);
        assert_eq!(seed(SeedKind::ProfSearchResumes).records, 278_956);
    }

    #[test]
    fn degrees_match_published_counts() {
        assert!((google_web_avg_degree() - 5.83).abs() < 0.01);
        assert!((facebook_avg_degree() - 21.84).abs() < 0.01);
    }

    #[test]
    fn display_names_are_nonempty() {
        for kind in SeedKind::ALL {
            assert!(!kind.to_string().is_empty());
        }
    }
}
