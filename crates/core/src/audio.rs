//! The virtual audio driver (§4.2, §7).
//!
//! THINC applies its virtual-driver idea to audio: a virtualized
//! device (an ALSA kernel module in the prototype) intercepts PCM
//! data at the device layer, timestamps it, packetizes it, and sends
//! it to the client. Operating at the device layer makes every audio
//! library work unmodified. Timestamps let the client reproduce the
//! server's A/V synchronization.

use thinc_protocol::message::Message;

/// Packetization target: one audio message per this many bytes.
pub const DEFAULT_PACKET_BYTES: usize = 4096;

/// A virtual audio output device.
#[derive(Debug)]
pub struct VirtualAudioDriver {
    /// Sample rate in Hz.
    sample_rate: u32,
    /// Bytes per sample frame (channels × sample size).
    frame_bytes: u32,
    packet_bytes: usize,
    /// Bytes accepted since the device opened.
    bytes_written: u64,
    next_seq: u32,
    pending: Vec<u8>,
    /// Device-clock origin in microseconds of virtual time.
    start_us: u64,
}

impl VirtualAudioDriver {
    /// Opens a device: `sample_rate` Hz, `channels` × 16-bit samples,
    /// clock origin `start_us`.
    pub fn new(sample_rate: u32, channels: u32, start_us: u64) -> Self {
        Self {
            sample_rate,
            frame_bytes: channels * 2,
            packet_bytes: DEFAULT_PACKET_BYTES,
            bytes_written: 0,
            next_seq: 0,
            pending: Vec::new(),
            start_us,
        }
    }

    /// Overrides the packetization size.
    pub fn with_packet_bytes(mut self, bytes: usize) -> Self {
        self.packet_bytes = bytes.max(1);
        self
    }

    /// Bytes per second of the PCM stream.
    pub fn bytes_per_sec(&self) -> u64 {
        self.sample_rate as u64 * self.frame_bytes as u64
    }

    /// The device-clock timestamp of the byte at `offset`.
    fn timestamp_of(&self, offset: u64) -> u64 {
        self.start_us + offset * 1_000_000 / self.bytes_per_sec()
    }

    /// Applications write PCM data; full packets are returned as
    /// timestamped protocol messages.
    pub fn write(&mut self, pcm: &[u8]) -> Vec<Message> {
        self.pending.extend_from_slice(pcm);
        let mut out = Vec::new();
        while self.pending.len() >= self.packet_bytes {
            let data: Vec<u8> = self.pending.drain(..self.packet_bytes).collect();
            out.push(self.packet(data));
        }
        out
    }

    /// Flushes any buffered remainder as a final (short) packet.
    pub fn drain(&mut self) -> Option<Message> {
        if self.pending.is_empty() {
            return None;
        }
        let data = std::mem::take(&mut self.pending);
        Some(self.packet(data))
    }

    fn packet(&mut self, data: Vec<u8>) -> Message {
        let timestamp_us = self.timestamp_of(self.bytes_written);
        self.bytes_written += data.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        Message::Audio {
            seq,
            timestamp_us,
            data: data.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cd_quality() -> VirtualAudioDriver {
        // 44.1 kHz stereo 16-bit, as the benchmark clip.
        VirtualAudioDriver::new(44_100, 2, 0)
    }

    #[test]
    fn packetizes_at_boundary() {
        let mut d = cd_quality().with_packet_bytes(1000);
        let msgs = d.write(&vec![0u8; 2500]);
        assert_eq!(msgs.len(), 2);
        let tail = d.drain().unwrap();
        match tail {
            Message::Audio { data, seq, .. } => {
                assert_eq!(data.len(), 500);
                assert_eq!(seq, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(d.drain().is_none());
    }

    #[test]
    fn timestamps_follow_device_clock() {
        let mut d = cd_quality().with_packet_bytes(44_100 * 4); // 1 s.
        let msgs = d.write(&vec![0u8; 44_100 * 4 * 2]);
        assert_eq!(msgs.len(), 2);
        let ts: Vec<u64> = msgs
            .iter()
            .map(|m| match m {
                Message::Audio { timestamp_us, .. } => *timestamp_us,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts[0], 0);
        assert_eq!(ts[1], 1_000_000);
    }

    #[test]
    fn clock_origin_offsets_timestamps() {
        let mut d = VirtualAudioDriver::new(8000, 1, 500_000).with_packet_bytes(16_000);
        let msgs = d.write(&vec![0u8; 16_000]);
        match &msgs[0] {
            Message::Audio { timestamp_us, .. } => assert_eq!(*timestamp_us, 500_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut d = cd_quality().with_packet_bytes(10);
        let msgs = d.write(&vec![0u8; 35]);
        let seqs: Vec<u32> = msgs
            .iter()
            .map(|m| match m {
                Message::Audio { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn bitrate_math() {
        let d = cd_quality();
        assert_eq!(d.bytes_per_sec(), 176_400);
    }
}
