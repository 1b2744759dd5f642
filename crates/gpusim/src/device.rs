//! Device constants.

/// A GPU accelerator attached to the host over a CPU–GPU link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Device name (reports only).
    pub name: &'static str,
    /// Peak single-precision throughput, FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Host link (NVLink) bandwidth, bytes/s.
    pub link_bandwidth: f64,
    /// Device memory capacity, bytes.
    pub memory_bytes: usize,
    /// Per-kernel launch overhead, seconds.
    pub launch_overhead: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla P100 on an IBM S822LC: 9.3 TFLOP/s FP32, 732 GB/s
    /// HBM2, 16 GB, NVLink 1.0 at the paper's measured 34.1 GB/s.
    pub fn p100_nvlink() -> Self {
        DeviceSpec {
            name: "P100+NVLink1",
            peak_flops: 9.3e12,
            mem_bandwidth: 732e9,
            link_bandwidth: 34.1e9,
            memory_bytes: 16 * (1 << 30),
            launch_overhead: 5e-6,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::p100_nvlink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_constants_match_paper() {
        let d = DeviceSpec::p100_nvlink();
        assert_eq!(d.memory_bytes, 17_179_869_184);
        assert!((d.link_bandwidth - 34.1e9).abs() < 1e6);
    }
}
