//! Hardware rates for the virtual-time simulation.
//!
//! Everything but one constant comes straight from Table I
//! ([`hcft_topology::MachineSpec`]). The exception is the GF(2⁸)
//! multiply-accumulate throughput of one 2010-era core: calibrating the
//! paper's measured 6.375 s·GB⁻¹·member⁻¹ law against the simulator's
//! mechanics (one parity row = `group × shard` byte-operations per
//! member) gives ≈ 157 MB/s — a plausible table-lookup XOR-accumulate
//! rate for a Westmere core, recorded here as the default.

use hcft_topology::MachineSpec;

/// Byte rates used by the checkpoint task graphs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rates {
    /// Node-local storage write, bytes/s.
    pub ssd_write: f64,
    /// Node-local storage read, bytes/s (SSD reads ≥ writes; we use the
    /// write figure as a conservative stand-in unless overridden).
    pub ssd_read: f64,
    /// Per-node network injection, bytes/s.
    pub nic: f64,
    /// Shared parallel-file-system aggregate write, bytes/s.
    pub pfs: f64,
    /// Per-core GF(2⁸) multiply-accumulate, bytes of operand per second.
    pub gf_mul_acc: f64,
}

/// Calibrated 2010-era GF(2⁸) multiply-accumulate throughput (see module
/// docs): `1e9 / 6.375` bytes of parity-row operand per second.
pub(crate) const TSUBAME2_GF_RATE: f64 = 1.0e9 / 6.375;

impl Rates {
    /// Derive rates from a machine spec (Table I) and the calibrated
    /// field-arithmetic constant.
    pub(crate) fn from_machine(m: &MachineSpec) -> Self {
        let mib = 1024.0 * 1024.0;
        let gib = 1024.0 * mib;
        Rates {
            ssd_write: m.local_storage.write_mib_s * mib,
            ssd_read: m.local_storage.write_mib_s * mib,
            nic: m.network.total_gib_s() * gib,
            pfs: m.pfs.write_mib_s * mib,
            gf_mul_acc: TSUBAME2_GF_RATE,
        }
    }

    /// The TSUBAME2 configuration used throughout the paper.
    pub fn tsubame2() -> Self {
        Self::from_machine(&MachineSpec::tsubame2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsubame2_rates_match_table1() {
        let r = Rates::tsubame2();
        assert!((r.ssd_write - 360.0 * 1024.0 * 1024.0).abs() < 1.0);
        assert!((r.nic - 8.0 * 1024.0 * 1024.0 * 1024.0).abs() < 1.0);
        assert!((r.pfs - 10.0 * 1024.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn gf_rate_reproduces_the_paper_slope() {
        // One member encodes one parity row of a group of g over 1 GB
        // shards: work = g × 1e9 bytes → time = g × 6.375 s, i.e. the
        // paper's 25.5/51/102/204 s ladder.
        for g in [4u32, 8, 16, 32] {
            let t = g as f64 * 1.0e9 / TSUBAME2_GF_RATE;
            assert!((t - 6.375 * g as f64).abs() < 1e-6);
        }
    }
}
