//! The auction site (Rubis Server stand-in).
//!
//! RUBiS models eBay: browse items by category, view an item with its
//! bid history, place bids. State is relational (items, bids, users);
//! the stand-in keeps the same tables in memory and serves the same
//! browse-heavy mix over Zipf-popular categories.

use crate::server::Server;
use crate::trace::ServingTraceModel;
use bdb_archsim::Probe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One auction-site request.
#[derive(Debug, Clone, PartialEq)]
pub enum AuctionRequest {
    /// List the hottest items of a category.
    BrowseCategory(u16),
    /// View one item and its bid history.
    ViewItem(u32),
    /// Place a bid: `(user, item, amount)`.
    PlaceBid(u32, u32, f32),
}

#[derive(Debug, Clone)]
struct Item {
    category: u16,
    current_price: f32,
    bids: Vec<(u32, f32)>, // (user, amount)
}

/// The auction server.
#[derive(Debug)]
pub struct AuctionServer {
    items: Vec<Item>,
    /// category -> item ids.
    by_category: Vec<Vec<u32>>,
    users: u32,
    categories: u16,
    trace: Option<ServingTraceModel>,
    requests: u64,
    bids_placed: u64,
}

impl AuctionServer {
    /// Builds a site of `items` items across `categories` categories
    /// for `users` users, with Zipf category popularity.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn build(items: u32, categories: u16, users: u32, seed: u64) -> Self {
        assert!(items > 0 && categories > 0 && users > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut item_list = Vec::with_capacity(items as usize);
        let mut by_category: Vec<Vec<u32>> = vec![Vec::new(); categories as usize];
        for id in 0..items {
            let category = zipf_index(&mut rng, categories);
            let price = rng.gen_range(1.0f32..500.0);
            by_category[category as usize].push(id);
            item_list.push(Item { category, current_price: price, bids: Vec::new() });
        }
        Self {
            items: item_list,
            by_category,
            users,
            categories,
            trace: None,
            requests: 0,
            bids_placed: 0,
        }
    }

    /// Enables request-path instrumentation.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(ServingTraceModel::new());
    }

    /// The modeled service-time distribution for deterministic
    /// (host-independent) runs: relational browse/view/bid mix with a
    /// pronounced tail (bid writes contend), store-dominated.
    pub const SERVICE_MODEL: crate::model::ServiceTimeModel = crate::model::ServiceTimeModel {
        base_us: 2200.0,
        sigma: 0.40,
        tail_weight: 0.025,
        tail_mult: 7.0,
        store_share: (0.50, 0.75),
    };

    /// Pre-touches the modeled server code (ramp-up); no-op without
    /// tracing.
    pub fn warm_trace<P: Probe + ?Sized>(&mut self, probe: &mut P) {
        if let Some(t) = self.trace.as_mut() {
            t.warm(probe);
        }
    }

    /// Total bids placed.
    pub fn bids_placed(&self) -> u64 {
        self.bids_placed
    }

    /// The category of an item (ids wrap modulo the item count).
    pub fn item_category(&self, item: u32) -> u16 {
        self.items[(item as usize) % self.items.len()].category
    }

    /// Top 25 items of a category by bid count.
    pub fn browse<P: Probe + ?Sized>(&mut self, category: u16, probe: &mut P) -> Vec<u32> {
        let category = category % self.categories;
        let ids = self.by_category[category as usize].clone();
        let mut ranked: Vec<(usize, u32)> = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(t) = self.trace.as_mut() {
                t.data_access(probe, id as u64, 96, false);
            }
            probe.int_ops(4);
            ranked.push((self.items[id as usize].bids.len(), id));
        }
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        ranked.truncate(25);
        if let Some(t) = self.trace.as_mut() {
            t.render(probe, 512 + ranked.len() * 96);
        }
        ranked.into_iter().map(|(_, id)| id).collect()
    }

    /// One item plus its bid history length.
    pub fn view<P: Probe + ?Sized>(&mut self, item: u32, probe: &mut P) -> usize {
        let item = (item as usize) % self.items.len();
        if let Some(t) = self.trace.as_mut() {
            t.data_access(probe, item as u64, 256, false);
            let bid_bytes = (self.items[item].bids.len() * 8).clamp(8, 4096) as u32;
            t.data_access(probe, (item as u64) << 24, bid_bytes, false);
            t.render(probe, 1024);
        }
        probe.int_ops(12);
        self.items[item].bids.len()
    }

    /// Places a bid; returns whether it beat the current price.
    pub fn bid<P: Probe + ?Sized>(
        &mut self,
        user: u32,
        item: u32,
        amount: f32,
        probe: &mut P,
    ) -> bool {
        let item_idx = (item as usize) % self.items.len();
        if let Some(t) = self.trace.as_mut() {
            t.data_access(probe, item_idx as u64, 256, false);
        }
        probe.fp_ops(2);
        let it = &mut self.items[item_idx];
        let accepted = amount > it.current_price;
        if accepted {
            it.current_price = amount;
            it.bids.push((user % self.users, amount));
            self.bids_placed += 1;
            if let Some(t) = self.trace.as_mut() {
                t.data_access(probe, (item_idx as u64) << 24, 64, true);
            }
        }
        if let Some(t) = self.trace.as_mut() {
            t.render(probe, 256);
        }
        accepted
    }
}

/// Zipf-popular index in `[0, n)` (rank 0 most popular).
fn zipf_index(rng: &mut StdRng, n: u16) -> u16 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((n as f64).powf(u) as u16).saturating_sub(1).min(n - 1)
}

impl Server for AuctionServer {
    type Request = AuctionRequest;

    fn name(&self) -> &str {
        "Rubis Server"
    }

    fn sample_request(&self, rng: &mut StdRng) -> AuctionRequest {
        match rng.gen_range(0..100) {
            0..=49 => AuctionRequest::BrowseCategory(zipf_index(rng, self.categories)),
            50..=79 => AuctionRequest::ViewItem(rng.gen_range(0..self.items.len() as u32)),
            _ => AuctionRequest::PlaceBid(
                rng.gen_range(0..self.users),
                rng.gen_range(0..self.items.len() as u32),
                rng.gen_range(1.0f32..1000.0),
            ),
        }
    }

    fn handle<P: Probe + ?Sized>(&mut self, request: &AuctionRequest, probe: &mut P) -> usize {
        self.requests += 1;
        if let Some(t) = self.trace.as_mut() {
            t.on_request(probe, self.requests);
        }
        match request {
            AuctionRequest::BrowseCategory(c) => self.browse(*c, probe).len(),
            AuctionRequest::ViewItem(i) => self.view(*i, probe),
            AuctionRequest::PlaceBid(u, i, a) => self.bid(*u, *i, *a, probe) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_archsim::NullProbe;

    fn server() -> AuctionServer {
        AuctionServer::build(500, 20, 100, 1)
    }

    #[test]
    fn build_distributes_items() {
        let s = server();
        let total: usize = s.by_category.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        // Zipf: category 0/1 should hold many more items than the tail.
        assert!(s.by_category[0].len() + s.by_category[1].len() > s.by_category[19].len());
    }

    #[test]
    fn browse_returns_category_items() {
        let mut s = server();
        let ids = s.browse(0, &mut NullProbe);
        assert!(!ids.is_empty());
        assert!(ids.len() <= 25);
        for id in ids {
            assert_eq!(s.item_category(id), 0);
        }
    }

    #[test]
    fn bids_raise_price_and_rank() {
        let mut s = server();
        let target = s.by_category[0][0];
        let before = s.items[target as usize].current_price;
        assert!(s.bid(1, target, before + 100.0, &mut NullProbe));
        assert!(!s.bid(2, target, before + 50.0, &mut NullProbe), "lower bid rejected");
        assert_eq!(s.bids_placed(), 1);
        assert!(s.items[target as usize].current_price > before);
        // The bid-upon item should now rank first in its category.
        let ids = s.browse(0, &mut NullProbe);
        assert_eq!(ids[0], target);
    }

    #[test]
    fn view_reports_bid_history() {
        let mut s = server();
        let target = s.by_category[1][0];
        assert_eq!(s.view(target, &mut NullProbe), 0);
        s.bid(1, target, 10_000.0, &mut NullProbe);
        assert_eq!(s.view(target, &mut NullProbe), 1);
    }

    #[test]
    fn request_mix_is_browse_heavy() {
        let s = server();
        let mut rng = StdRng::seed_from_u64(2);
        let mut browses = 0;
        for _ in 0..1000 {
            if matches!(s.sample_request(&mut rng), AuctionRequest::BrowseCategory(_)) {
                browses += 1;
            }
        }
        assert!((400..600).contains(&browses));
    }

    #[test]
    fn handles_full_mix() {
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let req = s.sample_request(&mut rng);
            s.handle(&req, &mut NullProbe);
        }
        assert!(s.bids_placed() > 10, "some bids should land");
    }

    #[test]
    fn traced_browse_records_scan() {
        use bdb_archsim::CountingProbe;
        let mut s = server();
        s.enable_tracing();
        let mut probe = CountingProbe::default();
        s.handle(&AuctionRequest::BrowseCategory(0), &mut probe);
        assert!(probe.mix().loads > 10, "category scan recorded");
        assert!(probe.mix().other > 0);
    }
}
