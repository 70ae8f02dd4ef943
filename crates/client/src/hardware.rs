//! The client hardware model.
//!
//! THINC's commands "mimic operations commonly found in client display
//! hardware and represent a subset of operations accelerated by most
//! graphics subsystems" (§3). This module models such a device — a
//! 2005 commodity card with 2D acceleration and a YUV overlay — and
//! what each operation costs on it: the basis for accounting client
//! processing time, which the paper's instrumented clients measure
//! (§8.2). Costs are in abstract cycles; the bench harness converts
//! them to time with a clock rate (the testbed client is a 450 MHz
//! Pentium II).

/// Per-operation cost model (abstract cycles).
#[derive(Debug, Clone, Default)]
pub struct ClientHardware {
    cycles: u64,
}

/// Cycles per pixel of an accelerated operation (setup amortized;
/// blitters move multiple pixels per cycle).
const HW_PIXEL_CYCLES: u64 = 1;
/// Fixed per-command dispatch cost.
const DISPATCH_CYCLES: u64 = 200;
/// Cycles per byte of decompression (client-side PNG-like decode).
const DECOMPRESS_CYCLES_PER_BYTE: u64 = 12;

impl ClientHardware {
    /// Total cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accounts an operation over `pixels`: a solid, pattern or
    /// stipple fill, a screen-to-screen copy, a raw pixel write, or a
    /// YUV frame handed to the overlay — which converts and scales it
    /// for free beyond the transfer, so a frame costs its source
    /// pixels whatever size it is shown at (§4.2).
    pub fn raster(&mut self, pixels: u64) {
        self.cycles += DISPATCH_CYCLES + pixels * HW_PIXEL_CYCLES;
    }

    /// Accounts decompressing `bytes` of RAW payload.
    pub fn decompress(&mut self, bytes: u64) {
        self.cycles += bytes * DECOMPRESS_CYCLES_PER_BYTE;
    }

    /// Converts consumed cycles to seconds at `clock_hz`.
    pub fn seconds_at(&self, clock_hz: u64) -> f64 {
        self.cycles as f64 / clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_with_clock() {
        let mut hw = ClientHardware::default();
        hw.raster(450_000);
        let slow = hw.seconds_at(450_000_000); // The paper's client.
        let fast = hw.seconds_at(933_000_000); // The paper's server.
        assert!(slow > fast);
    }
}
