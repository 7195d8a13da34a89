package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The gateway's application wire protocol, carried in websocket binary
// messages. Every frame — client op or server event — shares one
// layout:
//
//	[1] kind  [1] roomLen  [roomLen] room  [...] body
//
// Client ops:
//
//	OpJoin   body empty
//	OpLeave  body empty
//	OpSet    body [1] cell  [8] value (LE)
//	OpAdd    body [1] cell  [8] delta (LE)
//	OpGet    body empty
//
// Server events:
//
//	EvJoined body [4] space id (LE)  [8] space generation (LE)
//	EvLeft   body empty
//	EvDelta  body [1] cell  [8] new value (LE)
//	EvState  body [RoomCells × 8] cell values (LE)
//	EvError  body UTF-8 message
//
// DecodeFrame validates everything that is attacker-controlled —
// lengths, kinds, cell indices — and returns errors, never panics:
// this is the boundary the fuzz target hammers.

// RoomCells is the number of 8-byte cells in a room's shared state.
const RoomCells = 64

// RoomStateBytes is a room region's size.
const RoomStateBytes = RoomCells * 8

// Fixed body sizes of the non-empty frame kinds; DecodeFrame checks them
// and EncodeFrame sizes its buffer by them.
const (
	cellOpBytes = 1 + 8 // OpSet, OpAdd, EvDelta: cell, value
	joinedBytes = 4 + 8 // EvJoined: space id, generation
)

// MaxRoomName bounds a room name (the wire field is one byte anyway).
const MaxRoomName = 128

// Client op kinds.
const (
	OpJoin  byte = 0x01
	OpLeave byte = 0x02
	OpSet   byte = 0x03
	OpAdd   byte = 0x04
	OpGet   byte = 0x05
)

// Server event kinds.
const (
	EvJoined byte = 0x81
	EvLeft   byte = 0x82
	EvDelta  byte = 0x83
	EvState  byte = 0x84
	EvError  byte = 0x85
)

// ErrBadFrame is the sentinel matched by errors.Is for any frame
// DecodeFrame rejects.
var ErrBadFrame = errors.New("malformed gateway frame")

// Frame is one decoded wire frame.
type Frame struct {
	Kind  byte
	Room  string
	Cell  int     // OpSet, OpAdd, EvDelta
	Value int64   // OpSet, OpAdd, EvDelta
	Space int     // EvJoined
	Gen   uint64  // EvJoined
	State []int64 // EvState (length RoomCells)
	Msg   string  // EvError
}

func badFrame(format string, args ...any) error {
	return fmt.Errorf("gateway: %s: %w", fmt.Sprintf(format, args...), ErrBadFrame)
}

// DecodeFrame parses one wire frame. Every length and index is checked
// against the buffer before use; malformed input of any shape returns
// an error wrapping ErrBadFrame.
func DecodeFrame(buf []byte) (Frame, error) {
	var f Frame
	if len(buf) < 2 {
		return f, badFrame("frame of %d bytes", len(buf))
	}
	f.Kind = buf[0]
	roomLen := int(buf[1])
	if roomLen > MaxRoomName {
		return f, badFrame("room name of %d bytes", roomLen)
	}
	if len(buf) < 2+roomLen {
		return f, badFrame("room name truncated: %d bytes for length %d", len(buf)-2, roomLen)
	}
	f.Room = string(buf[2 : 2+roomLen])
	body := buf[2+roomLen:]
	switch f.Kind {
	case OpJoin, OpLeave, OpGet, EvLeft:
		if len(body) != 0 {
			return f, badFrame("kind %#x carries %d unexpected body bytes", f.Kind, len(body))
		}
	case OpSet, OpAdd, EvDelta:
		if len(body) != cellOpBytes {
			return f, badFrame("kind %#x body of %d bytes, want %d", f.Kind, len(body), cellOpBytes)
		}
		f.Cell = int(body[0])
		if f.Cell >= RoomCells {
			return f, badFrame("cell %d out of range", f.Cell)
		}
		f.Value = int64(binary.LittleEndian.Uint64(body[1:]))
	case EvJoined:
		if len(body) != joinedBytes {
			return f, badFrame("EvJoined body of %d bytes, want %d", len(body), joinedBytes)
		}
		f.Space = int(binary.LittleEndian.Uint32(body))
		f.Gen = binary.LittleEndian.Uint64(body[4:])
	case EvState:
		if len(body) != RoomStateBytes {
			return f, badFrame("EvState body of %d bytes, want %d", len(body), RoomStateBytes)
		}
		f.State = make([]int64, RoomCells)
		for i := range f.State {
			f.State[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
		}
	case EvError:
		if len(body) > maxWSPayload {
			return f, badFrame("EvError message of %d bytes", len(body))
		}
		f.Msg = string(body)
	default:
		return f, badFrame("unknown kind %#x", f.Kind)
	}
	return f, nil
}

// EncodeFrame renders f in the wire layout. It is DecodeFrame's
// inverse for valid frames; invalid field combinations (room too long,
// cell out of range) return an error.
func EncodeFrame(f Frame) ([]byte, error) {
	if len(f.Room) > MaxRoomName {
		return nil, badFrame("room name of %d bytes", len(f.Room))
	}
	buf := make([]byte, 0, 2+len(f.Room)+bodySize(f))
	buf = append(buf, f.Kind, byte(len(f.Room)))
	buf = append(buf, f.Room...)
	switch f.Kind {
	case OpJoin, OpLeave, OpGet, EvLeft:
	case OpSet, OpAdd, EvDelta:
		if f.Cell < 0 || f.Cell >= RoomCells {
			return nil, badFrame("cell %d out of range", f.Cell)
		}
		buf = append(buf, byte(f.Cell))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Value))
	case EvJoined:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Space))
		buf = binary.LittleEndian.AppendUint64(buf, f.Gen)
	case EvState:
		if len(f.State) != RoomCells {
			return nil, badFrame("EvState with %d cells", len(f.State))
		}
		for _, v := range f.State {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case EvError:
		buf = append(buf, f.Msg...)
	default:
		return nil, badFrame("unknown kind %#x", f.Kind)
	}
	return buf, nil
}

// bodySize is the wire body length EncodeFrame writes for f, so a delta
// allocates its ~20 bytes rather than room for a whole state snapshot.
func bodySize(f Frame) int {
	switch f.Kind {
	case OpSet, OpAdd, EvDelta:
		return cellOpBytes
	case EvJoined:
		return joinedBytes
	case EvState:
		return RoomStateBytes
	case EvError:
		return len(f.Msg)
	}
	return 0
}
