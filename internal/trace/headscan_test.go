package trace

// Tests for HeadScanner, the block-head walk internal/stream builds its
// strict v2 index from, and for what a strict decoder must check in its
// place once frame payloads are no longer read at index time.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// readAtCounter counts ReadAt calls and the bytes they deliver.
type readAtCounter struct {
	r        io.ReaderAt
	calls, n int
}

func (c *readAtCounter) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.calls++
	c.n += n
	return n, err
}

// TestHeadScanner: the scanner finds every block of a row and a columnar
// file where the block walk finds it, reports the proc headers and the
// frames' ranks and counts, and reads one bounded chunk per block plus
// the proc payloads, never a frame payload.
func TestHeadScanner(t *testing.T) {
	tr := genTrace(3, 150, 41)
	for name, data := range map[string][]byte{"row": v2Bytes(t, tr, 16), "columnar": v2ColBytes(t, tr, 16)} {
		t.Run(name, func(t *testing.T) {
			offs, typs := findBlocks(t, data)
			cr := &readAtCounter{r: bytes.NewReader(data)}
			sc := NewHeadScanner(cr, int64(offs[0]))
			events := map[int]int{}
			procs := 0
			for i, off := range offs {
				b, err := sc.Next()
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				end := len(data)
				if i+1 < len(offs) {
					end = offs[i+1]
				}
				if b.Start != int64(off) || b.End != int64(end) || b.Frame != (typs[i] != blockProc) {
					t.Fatalf("block %d: scanned %+v, want [%d,%d) type %d", i, b, off, end, typs[i])
				}
				if b.Frame {
					events[b.Rank] += b.Count
					continue
				}
				p := tr.Procs[procs]
				if want := (ProcHeader{Rank: p.Rank, Core: p.Core, Clock: p.Clock, EventCount: len(p.Events)}); b.Proc != want {
					t.Errorf("proc block %d: %+v, want %+v", procs, b.Proc, want)
				}
				procs++
			}
			if _, err := sc.Next(); err != io.EOF {
				t.Fatalf("after the last block: %v, want io.EOF", err)
			}
			for _, p := range tr.Procs {
				if events[p.Rank] != len(p.Events) {
					t.Errorf("rank %d: frames declare %d events, want %d", p.Rank, events[p.Rank], len(p.Events))
				}
			}
			// the final Next at end of stream is one more (empty) read
			if want := len(offs) + procs + 1; cr.calls != want {
				t.Errorf("%d reads, want %d: one per block, one per proc payload, one at the end", cr.calls, want)
			}
			if most := headScanLen*len(offs) + 64*procs; cr.n > most || cr.n*5 > len(data) {
				t.Errorf("read %d bytes of %d (bound %d)", cr.n, len(data), most)
			}
		})
	}
}

// TestHeadScannerRejects: damage to a block head or to a proc block is a
// format error naming the block's byte offset; damage inside a frame
// payload is not the scanner's to see.
func TestHeadScannerRejects(t *testing.T) {
	tr := genTrace(2, 40, 43)
	data := v2ColBytes(t, tr, 16)
	offs, typs := findBlocks(t, data)
	scanAll := func(data []byte) error {
		sc := NewHeadScanner(bytes.NewReader(data), int64(offs[0]))
		for {
			if _, err := sc.Next(); err != nil {
				return err
			}
		}
	}
	if err := scanAll(data); err != io.EOF {
		t.Fatalf("clean file: %v", err)
	}
	secondProc := 0
	for i := 1; i < len(typs); i++ {
		if typs[i] == blockProc {
			secondProc = i
		}
	}
	flip := func(at int) []byte {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x20
		return mut
	}
	at := offs[secondProc]
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"marker":              {flip(offs[2] + 1), fmt.Sprintf("block at byte %d: no block marker", offs[2])},
		"block type":          {flip(offs[2] + markerLen), fmt.Sprintf("block at byte %d", offs[2])},
		"proc payload":        {flip(at + 12), fmt.Sprintf("block at byte %d: checksum mismatch", at)},
		"cut in a head":       {data[:offs[3]+6], fmt.Sprintf("block at byte %d: truncated block header", offs[3])},
		"cut in proc payload": {data[:at+12], fmt.Sprintf("block payload at byte %d", at)},
		"frame count zero":    {zeroFrameCount(t, data, offs[1]), fmt.Sprintf("block at byte %d: bad frame event count", offs[1])},
	} {
		err := scanAll(tc.data)
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a format error holding %q", name, err, tc.want)
		}
	}
	// a flipped byte deep inside a frame payload passes the scanner and
	// fails the frame's decoder, which names the same block
	mid := offs[1] + (offs[2]-offs[1])/2
	if err := scanAll(flip(mid)); err != io.EOF {
		t.Errorf("payload damage: the scanner returned %v", err)
	}
	d := NewFrameDecoder(bytes.NewReader(flip(mid)[offs[1]:offs[secondProc]]), int64(offs[1]), 0, ResyncPolicy{})
	var ev Event
	want := fmt.Sprintf("block at byte %d: checksum mismatch", offs[1])
	if err := d.Decode(&ev); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), want) {
		t.Errorf("payload damage: the decoder returned %v, want %q", err, want)
	}
}

// zeroFrameCount returns data with the event count of the frame at off
// set to zero (one byte here: the fixture's counts are below 128).
func zeroFrameCount(t *testing.T, data []byte, off int) []byte {
	t.Helper()
	_, _, hlen, _, err := parseBlockHead(data[off : off+blockHeadMax])
	if err != nil {
		t.Fatal(err)
	}
	_, n := binary.Uvarint(data[off+hlen:])
	mut := append([]byte(nil), data...)
	mut[off+hlen+n] = 0
	return mut
}

// TestRowFrameCountMustHold: a row frame whose checksum is good but whose
// count disagrees with the events it holds is refused whole, at its
// block, by every strict reader: not one of its events is delivered. The
// count is what a head-scanned index is built from, so it may not lie.
func TestRowFrameCountMustHold(t *testing.T) {
	tr := genTrace(1, 40, 47)
	evs := tr.Procs[0].Events
	var events []byte
	for i := range evs {
		events = appendEvent(events, &evs[i])
	}
	for name, tc := range map[string]struct {
		declared int
		reason   string
	}{
		"count too low":  {len(evs) - 2, "trailing bytes after frame events"},
		"count too high": {len(evs) + 1, "malformed event in frame"},
	} {
		// a whole file: the header, a proc block declaring the events
		// the frame really holds, and the frame with the lying count
		var file bytes.Buffer
		ew, err := NewEventWriterOpts(&file, HeaderOf(tr), WriterOptions{Version: Version2})
		if err != nil {
			t.Fatal(err)
		}
		if err := ew.fw.beginProc(ProcHeader{Rank: 0, Clock: "c", EventCount: len(evs)}); err != nil {
			t.Fatal(err)
		}
		section := ew.Offset()
		head := binary.AppendUvarint(binary.AppendUvarint(nil, 0), uint64(tc.declared))
		if err := ew.fw.writeBlock(blockFrame, head, events); err != nil {
			t.Fatal(err)
		}
		if err := ew.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		frame := file.Bytes()[section:]
		want := fmt.Sprintf("block at byte %d: %s", section, tc.reason)
		refused := func(reader string, n int, err error) {
			t.Helper()
			if n != 0 || !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s delivered %d events then %v, want none and a format error holding %q", name, reader, n, err, want)
			}
		}

		var ev Event
		err = NewFrameDecoder(bytes.NewReader(frame), section, 0, ResyncPolicy{}).Decode(&ev)
		refused("Decode", 0, err)
		n, err := NewFrameDecoder(bytes.NewReader(frame), section, 0, ResyncPolicy{}).DecodeBatch(make([]Event, 64))
		refused("DecodeBatch", n, err)
		got, _, err := readAllOpts(t, file.Bytes(), ResyncPolicy{})
		refused("EventReader", len(got[0]), err)
	}
}
