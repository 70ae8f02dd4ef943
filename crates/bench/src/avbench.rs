//! The audio/video playback benchmark (Figures 5, 6, 7).
//!
//! Plays the §8.2 clip — 352×240 YV12 at 24 fps for 34.75 s,
//! displayed fullscreen — through a system, interleaving the audio
//! track in 100 ms chunks for platforms that support it. Quality is
//! the slow-motion A/V measure: the delivered fraction of the A/V
//! data scaled by the playback slowdown (100% = everything arrived
//! at real-time speed).

use thinc_baselines::RemoteDisplay;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::av_quality;
use thinc_raster::Rect;
use thinc_workloads::video::{AudioTrack, VideoClip};

/// Result of one A/V benchmark run.
#[derive(Debug, Clone)]
pub struct AvResult {
    /// System name.
    pub system: String,
    /// Slow-motion A/V quality, 0.0–1.0.
    pub quality: f64,
    /// Total data transferred, megabytes.
    pub data_mb: f64,
    /// Effective playback duration, seconds.
    pub duration_s: f64,
    /// Video frames delivered / dropped.
    pub frames: (u32, u32),
    /// Whether the system played audio at all.
    pub audio: bool,
}

/// Audio chunk period.
const AUDIO_CHUNK: SimDuration = SimDuration(100_000);

/// Plays `clip` (plus `audio`, when supported) fullscreen at
/// `dst` through `sys`.
pub fn run_av(
    sys: &mut dyn RemoteDisplay,
    clip: &VideoClip,
    audio: Option<&AudioTrack>,
    dst: Rect,
) -> AvResult {
    let start = SimTime::ZERO + SimDuration::from_millis(10);
    let total_frames = clip.frame_count();
    let use_audio = audio.is_some() && sys.supports_audio();
    let mut next_audio = start;
    let mut audio_sent = 0u64;
    for i in 0..total_frames {
        let t = start + SimDuration::from_micros(clip.pts_us(i));
        // Interleave audio chunks due before this frame.
        if let (true, Some(track)) = (use_audio, audio) {
            while next_audio <= t {
                let off = (next_audio - start).as_micros() / 1000;
                if off >= track.duration_ms {
                    break;
                }
                let pcm = track.pcm(off, AUDIO_CHUNK.as_millis());
                audio_sent += pcm.len() as u64;
                sys.audio(next_audio, &pcm);
                next_audio += AUDIO_CHUNK;
            }
        }
        sys.video_frame(t, &clip.frame(i), dst);
    }
    let ideal = SimDuration::from_millis(clip.duration_ms);
    let end = start + ideal;
    let last = sys.drain(end);
    let stats = sys.av_stats();
    let delivered_frac = if total_frames == 0 {
        0.0
    } else {
        stats.frames_delivered as f64 / total_frames as f64
    };
    let actual = (last - start).max(ideal);
    let quality = av_quality(ideal, actual, delivered_frac);
    let data_mb = sys.trace().total_bytes() as f64 / 1e6;
    let _ = audio_sent;
    AvResult {
        system: sys.name(),
        quality,
        data_mb,
        duration_s: actual.as_secs_f64(),
        frames: (stats.frames_delivered, stats.frames_dropped),
        audio: use_audio && stats.audio_bytes > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thinc_system::ThincSystem;
    use thinc_baselines::{SunRay, Vnc};
    use thinc_net::link::NetworkConfig;

    fn short_clip() -> VideoClip {
        VideoClip::short(2_000) // 2 s, 48 frames.
    }

    fn fullscreen() -> Rect {
        Rect::new(0, 0, 512, 384)
    }

    #[test]
    fn thinc_plays_fullscreen_at_full_quality_lan_and_wan() {
        for net in [NetworkConfig::lan_desktop(), NetworkConfig::wan_desktop()] {
            let mut sys = ThincSystem::new(&net, 512, 384);
            let res = run_av(
                &mut sys,
                &short_clip(),
                Some(&AudioTrack::benchmark()),
                fullscreen(),
            );
            assert!(
                res.quality > 0.99,
                "{}: quality {} on {}",
                res.system,
                res.quality,
                net.name
            );
            assert!(res.audio);
        }
    }

    #[test]
    fn vnc_quality_poor_and_halves_in_wan() {
        let lan = run_av(
            &mut Vnc::new(&NetworkConfig::lan_desktop(), 512, 384),
            &short_clip(),
            None,
            fullscreen(),
        );
        let wan = run_av(
            &mut Vnc::new(&NetworkConfig::wan_desktop(), 512, 384),
            &short_clip(),
            None,
            fullscreen(),
        );
        assert!(lan.quality < 0.7, "lan {}", lan.quality);
        assert!(
            wan.quality < lan.quality * 0.75,
            "wan {} vs lan {}",
            wan.quality,
            lan.quality
        );
    }

    #[test]
    fn thinc_vastly_outperforms_sunray_on_video() {
        // Fullscreen playback at the paper's desktop resolution: the
        // inferred-pixel path cannot keep up while THINC's YUV stream
        // is untouched by view size.
        let net = NetworkConfig::lan_desktop();
        let clip = VideoClip::short(1_000);
        let dst = Rect::new(0, 0, 1024, 768);
        let thinc = run_av(&mut ThincSystem::new(&net, 1024, 768), &clip, None, dst);
        let sunray = run_av(&mut SunRay::new(&net, 1024, 768), &clip, None, dst);
        assert!(thinc.quality > sunray.quality * 2.0,
            "thinc {} vs sunray {}", thinc.quality, sunray.quality);
    }

    #[test]
    fn thinc_video_data_independent_of_view_size() {
        let net = NetworkConfig::lan_desktop();
        let clip = short_clip();
        let windowed = run_av(
            &mut ThincSystem::new(&net, 512, 384),
            &clip,
            None,
            Rect::new(0, 0, 352, 240),
        );
        let full = run_av(
            &mut ThincSystem::new(&net, 512, 384),
            &clip,
            None,
            fullscreen(),
        );
        let ratio = full.data_mb / windowed.data_mb;
        assert!((0.95..1.05).contains(&ratio), "{ratio}");
    }

    #[test]
    fn audio_only_playback_is_perfect_on_audio_systems() {
        // §8.3: "Most of the platforms with audio support provided
        // perfect audio playback quality in the absence of video."
        // Audio alone is ~1.4 Mbps — trivial for every network here.
        let track = AudioTrack {
            duration_ms: 2_000,
            ..AudioTrack::benchmark()
        };
        let total = track.total_bytes();
        for net in [NetworkConfig::lan_desktop(), NetworkConfig::wan_desktop()] {
            let mut sys = ThincSystem::new(&net, 256, 192);
            let start = thinc_net::time::SimTime(10_000);
            let mut t = start;
            for _ in 0..20 {
                let pcm = track.pcm((t - start).as_micros() / 1000, 100);
                sys.audio(t, &pcm);
                t += thinc_net::time::SimDuration::from_millis(100);
            }
            sys.drain(t);
            let got = sys.av_stats().audio_bytes;
            assert!(
                got >= total * 9 / 10,
                "{}: only {got}/{total} audio bytes delivered",
                net.name
            );
        }
    }

    #[test]
    fn pda_scaling_keeps_quality_cuts_data() {
        let pda = NetworkConfig::pda_802_11g();
        let clip = short_clip();
        let full = run_av(
            &mut ThincSystem::new(&pda, 512, 384),
            &clip,
            None,
            fullscreen(),
        );
        let scaled = run_av(
            &mut ThincSystem::with_viewport(&pda, 512, 384, 160, 120),
            &clip,
            None,
            fullscreen(),
        );
        assert!(scaled.quality > 0.99, "{}", scaled.quality);
        assert!(
            scaled.data_mb * 3.0 < full.data_mb,
            "scaled {} vs full {}",
            scaled.data_mb,
            full.data_mb
        );
    }
}
