//! FTI-style job layout: application ranks plus one dedicated encoding
//! rank per node.
//!
//! §V of the paper: on TSUBAME2 the application uses 16 ranks/node; FTI
//! adds one encoding process per node, so 17 ranks/node are launched and
//! global ranks 0, 17, 34, 51, … are encoder processes (the first rank of
//! each node). [`JobLayout`] captures this numbering and the translation
//! between *global* ranks (what the runtime and trace see) and
//! *application* ranks (what the solver and the clustering strategies see).

use crate::ids::{NodeId, Rank};
use crate::placement::Placement;

/// The role of a global rank in an FTI-style job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Runs the application (tsunami solver).
    Application,
    /// Dedicated FTI encoding process (one per node).
    Encoder,
}

/// Layout of a job with `app_per_node` application ranks and one encoder
/// rank per node, block-placed like the paper's runs.
#[derive(Clone, Debug)]
pub struct JobLayout {
    nodes: usize,
    app_per_node: usize,
    /// True when each node additionally hosts one encoder as global-rank
    /// offset 0 within the node.
    with_encoders: bool,
}

impl JobLayout {
    /// Layout with encoders: `nodes × (app_per_node + 1)` global ranks;
    /// within each node, local rank 0 is the encoder (so global encoder
    /// ranks are `0, app_per_node+1, 2(app_per_node+1), …` — 0, 17, 34, 51
    /// for the paper's 16-app-ranks case).
    pub fn with_encoders(nodes: usize, app_per_node: usize) -> Self {
        assert!(nodes > 0 && app_per_node > 0);
        JobLayout {
            nodes,
            app_per_node,
            with_encoders: true,
        }
    }

    /// Layout without encoder ranks (plain application job).
    pub fn app_only(nodes: usize, app_per_node: usize) -> Self {
        assert!(nodes > 0 && app_per_node > 0);
        JobLayout {
            nodes,
            app_per_node,
            with_encoders: false,
        }
    }

    /// Global ranks per node (application + encoder if present).
    pub fn ranks_per_node(&self) -> usize {
        self.app_per_node + usize::from(self.with_encoders)
    }

    /// Total global ranks in the job.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node()
    }

    /// Total application ranks.
    pub fn app_ranks(&self) -> usize {
        self.nodes * self.app_per_node
    }

    /// Role of a global rank.
    pub fn role(&self, global: Rank) -> Role {
        if self.with_encoders && global.idx().is_multiple_of(self.ranks_per_node()) {
            Role::Encoder
        } else {
            Role::Application
        }
    }

    /// Node hosting a global rank.
    pub fn node_of(&self, global: Rank) -> NodeId {
        NodeId::from(global.idx() / self.ranks_per_node())
    }

    /// All encoder global ranks, ascending (empty if no encoders).
    pub fn encoder_ranks(&self) -> Vec<Rank> {
        if !self.with_encoders {
            return Vec::new();
        }
        (0..self.nodes)
            .map(|n| Rank::from(n * self.ranks_per_node()))
            .collect()
    }

    /// All application global ranks, ascending.
    pub fn application_ranks(&self) -> Vec<Rank> {
        (0..self.total_ranks())
            .map(Rank::from)
            .filter(|&r| self.role(r) == Role::Application)
            .collect()
    }

    /// Translate an application index (0-based, dense) to its global rank.
    pub(crate) fn app_to_global(&self, app: usize) -> Rank {
        assert!(app < self.app_ranks(), "app rank {app} out of range");
        if !self.with_encoders {
            return Rank::from(app);
        }
        let node = app / self.app_per_node;
        let local = app % self.app_per_node;
        Rank::from(node * self.ranks_per_node() + 1 + local)
    }

    /// Translate a global rank to its application index, or `None` for an
    /// encoder rank.
    pub fn global_to_app(&self, global: Rank) -> Option<usize> {
        if !self.with_encoders {
            return (global.idx() < self.app_ranks()).then(|| global.idx());
        }
        let rpn = self.ranks_per_node();
        let node = global.idx() / rpn;
        let local = global.idx() % rpn;
        if local == 0 {
            None
        } else {
            Some(node * self.app_per_node + (local - 1))
        }
    }

    /// Placement of *application* ranks only, renumbered densely — this is
    /// what the clustering strategies operate on.
    pub fn app_placement(&self) -> Placement {
        let assign = (0..self.app_ranks())
            .map(|a| self.node_of(self.app_to_global(a)))
            .collect();
        Placement::from_assignment(assign, self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_counts() {
        // The paper's §V job: 64 nodes × (16 application ranks + 1 encoder).
        let l = JobLayout::with_encoders(64, 16);
        assert_eq!(l.total_ranks(), 1088);
        assert_eq!(l.app_ranks(), 1024);
        assert_eq!(l.ranks_per_node(), 17);
    }

    #[test]
    fn encoder_ranks_match_paper_figure_5b() {
        // The paper's §V job: 64 nodes × (16 application ranks + 1 encoder).
        let l = JobLayout::with_encoders(64, 16);
        let enc = l.encoder_ranks();
        // Fig. 5b: encoding processes at global ranks 0, 17, 34, 51.
        assert_eq!(&enc[..4], &[Rank(0), Rank(17), Rank(34), Rank(51)]);
        assert_eq!(enc.len(), 64);
        for r in &enc {
            assert_eq!(l.role(*r), Role::Encoder);
        }
    }

    #[test]
    fn app_global_translation_roundtrips() {
        let l = JobLayout::with_encoders(3, 4);
        for a in 0..l.app_ranks() {
            let g = l.app_to_global(a);
            assert_eq!(l.role(g), Role::Application);
            assert_eq!(l.global_to_app(g), Some(a));
        }
        assert_eq!(l.global_to_app(Rank(0)), None);
        assert_eq!(l.global_to_app(Rank(5)), None);
    }

    #[test]
    fn app_only_layout_is_identity() {
        let l = JobLayout::app_only(2, 4);
        assert_eq!(l.total_ranks(), 8);
        assert_eq!(l.app_to_global(5), Rank(5));
        assert_eq!(l.global_to_app(Rank(5)), Some(5));
        assert!(l.encoder_ranks().is_empty());
        assert_eq!(l.role(Rank(0)), Role::Application);
    }

    #[test]
    fn app_placement_keeps_node_identity() {
        let l = JobLayout::with_encoders(4, 4);
        let p = l.app_placement();
        assert_eq!(p.nprocs(), 16);
        // App ranks 0..4 on node 0, 4..8 on node 1, etc.
        assert_eq!(p.node_of(Rank(0)), NodeId(0));
        assert_eq!(p.node_of(Rank(3)), NodeId(0));
        assert_eq!(p.node_of(Rank(4)), NodeId(1));
    }
}
