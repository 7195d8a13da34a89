package gateway

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
)

// A minimal RFC 6455 websocket layer, hand-rolled over the standard
// library (the repo takes no dependencies). It implements exactly what
// the gateway needs: the HTTP upgrade handshake on both sides, binary
// data frames, the mask rules (client frames masked, server frames
// not), and enough control-frame handling to answer pings and close
// cleanly. No fragmentation (the gateway's frames are small), no
// extensions, no subprotocol negotiation.

// wsGUID is the key-accept GUID fixed by RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// maxWSPayload bounds a single websocket frame's payload. Client
// frames beyond it are rejected before any allocation sized from the
// attacker-controlled length field.
const maxWSPayload = 1 << 20

// Websocket opcodes (RFC 6455 §5.2).
const (
	wsContinuation = 0x0
	wsText         = 0x1
	wsBinary       = 0x2
	wsClose        = 0x8
	wsPing         = 0x9
	wsPong         = 0xA
)

var errWSClosed = errors.New("gateway: websocket closed")

// wsAccept computes the Sec-WebSocket-Accept token for a key.
func wsAccept(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// wsConn is one websocket connection after the handshake. One reader
// goroutine at a time; writes are serialized by wmu because the read
// side also writes (pong replies to pings) concurrently with the
// writer goroutine's message sends.
type wsConn struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	wmu    sync.Mutex // serializes writers: message sends vs. pong/close replies
	client bool       // client side masks outgoing frames
}

// upgrade performs the server half of the handshake: it validates the
// upgrade request, hijacks the HTTP connection, and answers 101.
func upgrade(w http.ResponseWriter, r *http.Request) (*wsConn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: method not GET", http.StatusMethodNotAllowed)
		return nil, errors.New("gateway: upgrade method not GET")
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", "websocket") {
		http.Error(w, "websocket: not an upgrade request", http.StatusBadRequest)
		return nil, errors.New("gateway: not an upgrade request")
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("gateway: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: cannot hijack", http.StatusInternalServerError)
		return nil, errors.New("gateway: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("gateway: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAccept(key) + "\r\n\r\n"
	if _, err := rw.Writer.WriteString(resp); err != nil {
		conn.Close()
		return nil, err
	}
	if err := rw.Writer.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return &wsConn{conn: conn, br: rw.Reader, bw: rw.Writer}, nil
}

// headerHasToken reports whether a comma-separated header contains the
// token (case-insensitive), as required for Connection: keep-alive,
// Upgrade.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// wsDial performs the client half of the handshake against
// ws://host/path expressed as a plain address + path.
func wsDial(addr, path string) (*wsConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var keyRaw [16]byte
	if _, err := io.ReadFull(rand.Reader, keyRaw[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	req := "GET " + path + " HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("gateway: handshake status %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != wsAccept(key) {
		conn.Close()
		return nil, errors.New("gateway: bad Sec-WebSocket-Accept")
	}
	return &wsConn{conn: conn, br: br, bw: bufio.NewWriter(conn), client: true}, nil
}

// readMessage returns the next binary message's payload, transparently
// answering pings and returning errWSClosed on a close frame. Malformed
// frames (unmasked client frames on the server side, oversized
// payloads, unexpected opcodes) come back as errors, never panics.
func (c *wsConn) readMessage() ([]byte, error) {
	for {
		opcode, fin, payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch opcode {
		case wsBinary, wsText:
			if !fin {
				return nil, errors.New("gateway: fragmented frames unsupported")
			}
			return payload, nil
		case wsPing:
			if err := c.writeControl(wsPong, payload); err != nil {
				return nil, err
			}
		case wsPong:
			// Unsolicited pong: ignore.
		case wsClose:
			c.writeControl(wsClose, nil)
			return nil, errWSClosed
		default:
			return nil, fmt.Errorf("gateway: unexpected websocket opcode %#x", opcode)
		}
	}
}

// readFrame reads one websocket frame of any opcode and returns its
// unmasked payload, enforcing the size limit and the mask rules.
func (c *wsConn) readFrame() (opcode byte, fin bool, payload []byte, err error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return 0, false, nil, errors.New("gateway: websocket reserved bits set")
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > maxWSPayload {
		return 0, false, nil, fmt.Errorf("gateway: websocket frame of %d bytes exceeds limit", length)
	}
	// RFC 6455 §5.1: client→server frames MUST be masked,
	// server→client MUST NOT be.
	if !c.client && !masked {
		return 0, false, nil, errors.New("gateway: unmasked client frame")
	}
	if c.client && masked {
		return 0, false, nil, errors.New("gateway: masked server frame")
	}
	var maskKey [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, maskKey[:]); err != nil {
			return 0, false, nil, err
		}
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, false, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= maskKey[i&3]
		}
	}
	return opcode, fin, payload, nil
}

// writeMessage sends one binary message.
func (c *wsConn) writeMessage(payload []byte) error {
	return c.writeBatch([][]byte{payload})
}

// writeBatch sends several binary messages with a single flush: the
// frames go into the buffered writer back to back under one write-lock
// hold, so a pong or close from the read side lands between batches,
// never inside one.
func (c *wsConn) writeBatch(payloads [][]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for _, p := range payloads {
		if err := c.writeFrame(wsBinary, p); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// writeControl sends a control frame immediately. Control frames come
// from the read side (pong replies) and from close, so the write lock
// is what keeps them from interleaving with message frames.
func (c *wsConn) writeControl(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeFrame(opcode, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *wsConn) writeFrame(opcode byte, payload []byte) error {
	var hdr [14]byte
	hdr[0] = 0x80 | opcode
	n := 2
	switch l := len(payload); {
	case l < 126:
		hdr[1] = byte(l)
	case l <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:], uint16(l))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:], uint64(l))
		n = 10
	}
	if c.client {
		hdr[1] |= 0x80
		var maskKey [4]byte
		if _, err := io.ReadFull(rand.Reader, maskKey[:]); err != nil {
			return err
		}
		copy(hdr[n:], maskKey[:])
		n += 4
		if _, err := c.bw.Write(hdr[:n]); err != nil {
			return err
		}
		// Mask into a scratch copy: the caller keeps its payload.
		masked := make([]byte, len(payload))
		for i, b := range payload {
			masked[i] = b ^ maskKey[i&3]
		}
		_, err := c.bw.Write(masked)
		return err
	}
	if _, err := c.bw.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// close sends a close frame (best effort) and closes the connection.
func (c *wsConn) close() {
	c.writeControl(wsClose, nil)
	c.conn.Close()
}
