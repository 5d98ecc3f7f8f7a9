// Package tsyncd implements the trace-sync service: a long-lived TCP
// server where each connection runs one streaming correction session
// (merge → base correction → CLC → censuses) over a length-prefixed
// protocol, returning results bit-identical to the one-shot
// cmd/tracesync on the same input. The package carries the robustness
// surface the ROADMAP's production target needs — admission control,
// per-tenant quotas, idle reaping, and graceful drain — while the
// correction itself stays the same stream.Session the CLI uses, which
// is how the determinism contract survives concurrency.
package tsyncd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"tsync/internal/measure"
	"tsync/internal/stream"
)

// Frame layout: one type byte, a uint32 little-endian payload length,
// then the payload. The cap below bounds what either side will buffer
// for a single frame; DATA/RESULT bodies are chunked under it.
const (
	frameHeaderSize = 5
	// DefaultMaxFrame bounds a single frame payload.
	DefaultMaxFrame = 1 << 20
	// resultChunk is the server's RESULT chunk size: small enough to
	// interleave with deadline refreshes, large enough to amortize the
	// frame header.
	resultChunk = 64 << 10
)

// Client → server frame types.
const (
	fHello byte = 0x01 // JSON Hello: tenant, pipeline config, offsets
	fData  byte = 0x02 // raw trace bytes, chunked
	fEOF   byte = 0x03 // end of trace body; run the session
	fAbort byte = 0x04 // abandon the session
	fPing  byte = 0x05 // keepalive probe
)

// Server → client frame types.
const (
	fAccept byte = 0x11 // session admitted; JSON accept payload
	fReject byte = 0x12 // admission refused; JSON Error
	fResult byte = 0x14 // corrected trace bytes, chunked (WantTrace only)
	fDone   byte = 0x15 // JSON Done: result, checksum, partial flag
	fError  byte = 0x16 // session failed; JSON Error
	fPong   byte = 0x17 // keepalive reply
)

// Code classifies every way a session can be refused or fail. The
// fault-matrix acceptance test counts a session as handled iff its
// outcome is bit-identical completion or one of these.
type Code string

const (
	// CodeBusy: the session queue is full; retry later.
	CodeBusy Code = "busy"
	// CodeQueueTimeout: a slot did not free up within the queue deadline.
	CodeQueueTimeout Code = "queue-timeout"
	// CodeDraining: the server is shutting down and admits no sessions.
	CodeDraining Code = "draining"
	// CodeQuotaBytes: the tenant's upload byte budget is exhausted.
	CodeQuotaBytes Code = "quota-bytes"
	// CodeQuotaEvents: the trace holds more events than the tenant may run.
	CodeQuotaEvents Code = "quota-events"
	// CodeQuotaSpill: the session's spill writes outgrew the tenant budget.
	CodeQuotaSpill Code = "quota-spill"
	// CodeMalformed: a frame violated the protocol (bad type, oversized,
	// undecodable payload).
	CodeMalformed Code = "malformed-frame"
	// CodeBadTrace: the uploaded bytes do not decode as a trace.
	CodeBadTrace Code = "bad-trace"
	// CodeUnsupported: the requested pipeline cannot run streaming.
	CodeUnsupported Code = "unsupported"
	// CodeWindow: the reorder window overflowed under PolicyError.
	CodeWindow Code = "window-overflow"
	// CodeIdleTimeout: the client stalled past the idle deadline.
	CodeIdleTimeout Code = "idle-timeout"
	// CodeAborted: the session was aborted (client fAbort or server drain).
	CodeAborted Code = "aborted"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal Code = "internal"
)

// Error is the classified session error both sides exchange in REJECT
// and ERROR frames. It implements error so client code can errors.As
// straight out of Sync.
type Error struct {
	Code Code   `json:"code"`
	Msg  string `json:"msg,omitempty"`
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return "tsyncd: " + string(e.Code)
	}
	return "tsyncd: " + string(e.Code) + ": " + e.Msg
}

func errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// ErrMalformed reports a frame the reader refused to decode.
var errMalformed = &Error{Code: CodeMalformed}

// Hello is the session request: which tenant is asking, how to run the
// pipeline, and the offset tables the base correction needs. Every
// field that can change output bytes carries cmd/tracesync's flag
// spelling, so an equal configuration produces equal bytes.
type Hello struct {
	Tenant string `json:"tenant"`
	// Base names the base correction (core.ParseBase spellings).
	Base string `json:"base"`
	CLC  bool   `json:"clc"`
	// Window and Policy are the engine settings that can change a
	// result (by failing instead of spilling); zero values select the
	// same defaults as the CLI. Settings that only shape memory and wall
	// time (slab size, merge fan-out) are the server's to choose, not a
	// client's: a HELLO cannot size a server-side allocation.
	Window int    `json:"window,omitempty"`
	Policy string `json:"policy,omitempty"`
	// Salvage tolerates v2 corruption; MaxSkipBytes bounds the skip.
	Salvage      bool  `json:"salvage,omitempty"`
	MaxSkipBytes int64 `json:"max_skip_bytes,omitempty"`
	// WantTrace streams the corrected trace back in RESULT frames; the
	// checksum in Done covers those bytes either way.
	WantTrace bool `json:"want_trace,omitempty"`
	// Init and Fin are the measured offset tables (the CLI reads them
	// from the .offsets.json sidecar).
	Init []measure.Offset `json:"init,omitempty"`
	Fin  []measure.Offset `json:"fin,omitempty"`
}

// Accept acknowledges admission.
type Accept struct {
	Session uint64 `json:"session"`
}

// Done carries the session outcome: the analysis result, the FNV-64a
// checksum over the corrected trace bytes (computed server-side whether
// or not they were returned), and whether salvage made the result
// partial. Checksum uses the same %016x rendering as the bench and
// differential suites, so it compares directly against a checksum of
// cmd/tracesync's output file.
type Done struct {
	Result   *stream.Result `json:"result"`
	Checksum string         `json:"checksum"`
	Partial  bool           `json:"partial,omitempty"`
}

// writeFrame emits one frame. Writes go through a single Write call so
// a deadline or fault splits frames, never interleaves them.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > DefaultMaxFrame {
		return errf(CodeMalformed, "frame payload %d exceeds %d", len(payload), DefaultMaxFrame)
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[frameHeaderSize:], payload)
	_, err := w.Write(buf)
	return err
}

// writeJSONFrame marshals v and emits it as a frame of the given type.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, blob)
}

// readFrame reads one frame, bounding the payload at max. A short or
// oversized frame returns errMalformed wrapped with detail; io errors
// (including deadline expiry) pass through for the caller to classify.
func readFrame(r io.Reader, max int) (byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if n > uint32(max) {
		return 0, nil, errf(CodeMalformed, "frame payload %d exceeds %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return hdr[0], payload, nil
}
