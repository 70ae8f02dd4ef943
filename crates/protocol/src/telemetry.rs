//! Classification of protocol messages for telemetry.
//!
//! Maps every [`Message`] onto the [`CommandKind`] taxonomy of
//! `thinc-telemetry`, and provides the one-call helper instrumented
//! senders use to account a message into a
//! [`ProtocolMetrics`](thinc_telemetry::ProtocolMetrics) as it is
//! committed to the wire.

use thinc_telemetry::{CommandKind, ProtocolMetrics};

use crate::commands::DisplayCommand;
use crate::message::Message;

/// The telemetry class of a message.
///
/// ```
/// use thinc_protocol::telemetry::command_kind;
/// use thinc_protocol::{DisplayCommand, Message};
/// use thinc_raster::{Color, Rect};
/// use thinc_telemetry::CommandKind;
///
/// let msg = Message::Display(DisplayCommand::Sfill {
///     rect: Rect::new(0, 0, 8, 8),
///     color: Color::WHITE,
/// });
/// assert_eq!(command_kind(&msg), CommandKind::Sfill);
/// assert_eq!(command_kind(&Message::VideoEnd { id: 1 }), CommandKind::Video);
/// ```
pub fn command_kind(msg: &Message) -> CommandKind {
    match msg {
        Message::Display(cmd) => match cmd {
            DisplayCommand::Raw { .. } => CommandKind::Raw,
            DisplayCommand::Copy { .. } => CommandKind::Copy,
            DisplayCommand::Sfill { .. } => CommandKind::Sfill,
            DisplayCommand::Pfill { .. } => CommandKind::Pfill,
            DisplayCommand::Bitmap { .. } => CommandKind::Bitmap,
        },
        Message::VideoInit { .. }
        | Message::VideoData { .. }
        | Message::VideoMove { .. }
        | Message::VideoEnd { .. } => CommandKind::Video,
        Message::Audio { .. } => CommandKind::Audio,
        Message::CursorShape { .. } | Message::CursorMove { .. } => CommandKind::Cursor,
        Message::ServerHello { .. }
        | Message::ClientHello { .. }
        | Message::Input(_)
        | Message::Resize { .. }
        | Message::SetView { .. }
        | Message::Ping { .. }
        | Message::Pong { .. }
        | Message::RefreshRequest { .. }
        | Message::CacheRef { .. }
        | Message::CacheMiss { .. }
        | Message::SessionResume { .. } => CommandKind::Control,
    }
}

/// Accounts one outgoing message (count + encoded wire bytes) into
/// `metrics`.
///
/// ```
/// use thinc_protocol::telemetry::record_message;
/// use thinc_protocol::Message;
/// use thinc_telemetry::{CommandKind, ProtocolMetrics};
///
/// let mut metrics = ProtocolMetrics::new();
/// let msg = Message::CursorMove { x: 10, y: 20 };
/// record_message(&mut metrics, &msg);
/// assert_eq!(metrics.count(CommandKind::Cursor), 1);
/// assert_eq!(metrics.bytes(CommandKind::Cursor), msg.wire_size());
/// ```
pub fn record_message(metrics: &mut ProtocolMetrics, msg: &Message) {
    metrics.record(command_kind(msg), msg.wire_size());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ProtocolInput;
    use thinc_raster::Rect;

    #[test]
    fn every_display_command_maps_to_its_kind() {
        use thinc_raster::Color;
        let cases: Vec<(DisplayCommand, CommandKind)> = vec![
            (
                DisplayCommand::Raw {
                    rect: Rect::new(0, 0, 2, 2),
                    encoding: crate::commands::RawEncoding::None,
                    data: vec![0; 16].into(),
                },
                CommandKind::Raw,
            ),
            (
                DisplayCommand::Copy {
                    src_rect: Rect::new(0, 0, 2, 2),
                    dst_x: 4,
                    dst_y: 4,
                },
                CommandKind::Copy,
            ),
            (
                DisplayCommand::Sfill {
                    rect: Rect::new(0, 0, 2, 2),
                    color: Color::WHITE,
                },
                CommandKind::Sfill,
            ),
            (
                DisplayCommand::Pfill {
                    rect: Rect::new(0, 0, 8, 8),
                    tile: crate::commands::Tile {
                        width: 2,
                        height: 2,
                        pixels: vec![0; 16],
                    },
                },
                CommandKind::Pfill,
            ),
            (
                DisplayCommand::Bitmap {
                    rect: Rect::new(0, 0, 8, 8),
                    bits: vec![0; 8],
                    fg: Color::BLACK,
                    bg: None,
                },
                CommandKind::Bitmap,
            ),
        ];
        for (cmd, kind) in cases {
            assert_eq!(command_kind(&Message::Display(cmd)), kind);
        }
    }

    #[test]
    fn control_and_stream_messages_classified() {
        assert_eq!(
            command_kind(&Message::Input(ProtocolInput::KeyPress { key: 13 })),
            CommandKind::Control
        );
        assert_eq!(
            command_kind(&Message::SetView {
                view: Rect::new(0, 0, 4, 4)
            }),
            CommandKind::Control
        );
        assert_eq!(
            command_kind(&Message::Audio {
                seq: 0,
                timestamp_us: 0,
                data: vec![1, 2].into()
            }),
            CommandKind::Audio
        );
        assert_eq!(
            command_kind(&Message::CursorMove { x: 0, y: 0 }),
            CommandKind::Cursor
        );
    }

    #[test]
    fn recorded_bytes_match_wire_encoding() {
        let mut m = ProtocolMetrics::new();
        let msg = Message::Display(DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 16, 16),
            dst_x: 32,
            dst_y: 32,
        });
        record_message(&mut m, &msg);
        record_message(&mut m, &msg);
        assert_eq!(m.count(CommandKind::Copy), 2);
        assert_eq!(
            m.bytes(CommandKind::Copy),
            2 * crate::wire::encode_message(&msg).len() as u64
        );
    }
}
