//! Property tests: every codec round-trips arbitrary byte strings,
//! and RC4 en/decryption is an involution at matching stream offsets.

use proptest::prelude::*;
use thinc_compress::{Codec, Rc4};

fn codecs(bpp: usize, stride: usize) -> Vec<Codec> {
    vec![
        Codec::None,
        Codec::Rle,
        Codec::PixelRle { bpp },
        Codec::Lzss,
        Codec::PngLike { bpp, stride },
    ]
}

proptest! {
    #[test]
    fn codecs_round_trip_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        for codec in codecs(3, 60) {
            let compressed = codec.compress(&data);
            let restored = codec.decompress(&compressed);
            prop_assert_eq!(restored.as_deref(), Some(&data[..]), "{:?}", codec);
        }
    }

    #[test]
    fn codecs_round_trip_runny_bytes(
        runs in prop::collection::vec((any::<u8>(), 1usize..300), 1..20)
    ) {
        let data: Vec<u8> = runs
            .iter()
            .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
            .collect();
        for codec in codecs(4, 128) {
            let compressed = codec.compress(&data);
            let restored = codec.decompress(&compressed);
            prop_assert_eq!(restored.as_deref(), Some(&data[..]), "{:?}", codec);
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        for codec in codecs(3, 48) {
            // Any result is fine; panics and hangs are not.
            let _ = codec.decompress(&garbage);
        }
    }

    #[test]
    fn rc4_involution(key in prop::collection::vec(any::<u8>(), 1..64),
                      msg in prop::collection::vec(any::<u8>(), 0..1024),
                      prefix in 0usize..256) {
        let mut enc = Rc4::new(&key);
        let mut dec = Rc4::new(&key);
        // Advance both streams by the same prefix.
        let mut skip = vec![0u8; prefix];
        enc.apply(&mut skip);
        let mut skip2 = vec![0u8; prefix];
        dec.apply(&mut skip2);
        let mut buf = msg.clone();
        enc.apply(&mut buf);
        dec.apply(&mut buf);
        prop_assert_eq!(buf, msg);
    }

    #[test]
    fn rc4_keystream_is_key_dependent(msg in prop::collection::vec(1u8..255, 16..64)) {
        let a = Rc4::new(b"key-a").process(&msg);
        let b = Rc4::new(b"key-b").process(&msg);
        prop_assert_ne!(a, b);
    }
}
