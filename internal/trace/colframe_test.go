package trace

// Tests for the columnar/delta v2 frame encoding: lossless round trips
// against the row codec, salvage behavior identical in spirit to row
// frames (drops possible, fabrications impossible), and the payload
// validator's rejection of malformed columns.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"tsync/internal/xrand"
)

// v2ColBytes encodes tr in the v2 codec with columnar frames.
func v2ColBytes(t testing.TB, tr *Trace, frameEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := WriterOptions{Version: Version2, FrameEvents: frameEvents, Columnar: true}
	if _, err := WriteOpts(&buf, tr, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColFrameRoundTrip: a columnar encode/decode cycle must reproduce
// the trace bit-exactly across frame geometries, including a frame size
// of one (every frame a single-event column set).
func TestColFrameRoundTrip(t *testing.T) {
	for _, frameEvents := range []int{0, 1, 3, 256, maxColFrameEvents} {
		tr := genTrace(3, 50, 11)
		data := v2ColBytes(t, tr, frameEvents)
		back, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("frameEvents=%d: %v", frameEvents, err)
		}
		var v1a, v1b bytes.Buffer
		if _, err := Write(&v1a, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := Write(&v1b, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v1a.Bytes(), v1b.Bytes()) {
			t.Fatalf("frameEvents=%d: columnar round trip changed the trace", frameEvents)
		}
	}
}

// TestColFrameSmaller: on synthetic traces with smoothly increasing
// timestamps the delta encoding must beat the row encoding — the reason
// the format exists.
func TestColFrameSmaller(t *testing.T) {
	tr := genTrace(2, 2000, 31)
	// Smooth the timestamps: monotone per rank, small increments, the
	// shape real traces have.
	for r := range tr.Procs {
		base := float64(r)
		for i := range tr.Procs[r].Events {
			base += 1e-4
			tr.Procs[r].Events[i].Time = base
			tr.Procs[r].Events[i].True = base + 1e-6
		}
	}
	row := v2Bytes(t, tr, 256)
	col := v2ColBytes(t, tr, 256)
	if len(col) >= len(row) {
		t.Fatalf("columnar encoding (%d bytes) not smaller than row (%d bytes)", len(col), len(row))
	}
}

// TestColFrameTinyTrace covers the collective/string edge cases through
// the incremental reader.
func TestColFrameTinyTrace(t *testing.T) {
	tr := tinyTrace()
	data := v2ColBytes(t, tr, 2)
	got, rep, err := readAllOpts(t, data, ResyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) != 0 {
		t.Fatalf("clean read produced incidents: %+v", rep.Incidents)
	}
	for r, p := range tr.Procs {
		if len(got[r]) != len(p.Events) {
			t.Fatalf("rank %d: got %d events, want %d", r, len(got[r]), len(p.Events))
		}
		for i := range p.Events {
			if !sameEventBits(got[r][i], p.Events[i]) {
				t.Fatalf("rank %d event %d differs", r, i)
			}
		}
	}
}

// TestColFrameDecoder runs a rank's columnar section through
// FrameDecoder — the path internal/stream's cursors use — and checks
// both the one-at-a-time and the batch interface.
func TestColFrameDecoder(t *testing.T) {
	tr := genTrace(1, 700, 17)
	data := v2ColBytes(t, tr, 64)
	offs, typs := findBlocks(t, data)
	sec := -1
	for i, typ := range typs {
		if typ == blockColFrame {
			sec = offs[i]
			break
		}
	}
	if sec < 0 {
		t.Fatal("no columnar block in columnar file")
	}
	want := tr.Procs[0].Events

	d := NewFrameDecoder(bytes.NewReader(data[sec:]), 0, 0, ResyncPolicy{})
	var ev Event
	for i := range want {
		if err := d.Decode(&ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !sameEventBits(ev, want[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
	if err := d.Decode(&ev); err != io.EOF {
		t.Fatalf("after last event: got %v, want io.EOF", err)
	}

	d = NewFrameDecoder(bytes.NewReader(data[sec:]), 0, 0, ResyncPolicy{})
	got := make([]Event, len(want)+1)
	n, err := d.DecodeBatch(got)
	if n != len(want) || err != io.EOF {
		t.Fatalf("DecodeBatch: got (%d, %v), want (%d, io.EOF)", n, err, len(want))
	}
	for i := range want {
		if !sameEventBits(got[i], want[i]) {
			t.Fatalf("batch event %d differs", i)
		}
	}
}

// TestColFrameSingleFlipSalvage: single-byte corruption of a columnar
// file must fail strict reads and salvage to a per-rank subsequence —
// never a fabrication — under resync.
func TestColFrameSingleFlipSalvage(t *testing.T) {
	tr := genTrace(3, 120, 23)
	data := v2ColBytes(t, tr, 8)
	firstBlock := bytes.Index(data, frameMarker[:])
	rng := xrand.NewSource(99)
	for trial := 0; trial < 40; trial++ {
		off := firstBlock + rng.Intn(len(data)-firstBlock)
		mut := append([]byte(nil), data...)
		mut[off] ^= byte(1 << rng.Intn(8))
		if mut[off] == data[off] {
			continue
		}

		if _, _, err := readAllOpts(t, mut, ResyncPolicy{}); err == nil {
			t.Fatalf("trial %d (byte %d): strict read accepted corrupt input", trial, off)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("trial %d: strict error not ErrBadFormat: %v", trial, err)
		}

		got, rep, err := readAllOpts(t, mut, ResyncPolicy{Enabled: true})
		if err != nil {
			t.Fatalf("trial %d (byte %d): resync read failed: %v", trial, off, err)
		}
		if len(rep.Incidents) == 0 {
			t.Fatalf("trial %d (byte %d): corruption recovered without an incident", trial, off)
		}
		for r, p := range tr.Procs {
			if !isSubsequence(got[r], p.Events) {
				t.Fatalf("trial %d (byte %d): rank %d salvaged events are not a subsequence of the original", trial, off, r)
			}
		}
	}
}

// TestColPayloadRejects exercises the columnar payload's validation branches
// on hand-built payloads.
func TestColPayloadRejects(t *testing.T) {
	tr := genTrace(1, 4, 7)
	good := appendColFrame(nil, tr.Procs[0].Events)
	prefix := []byte{0, 4} // rank 0, count 4 (single-byte uvarints)
	payload := append(append([]byte(nil), prefix...), good...)
	if _, err := parsePayload(blockColFrame, payload, new([]Event)); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"zero count", []byte{0, 0}},
		{"oversized count", binary_AppendUvarint([]byte{0}, uint64(maxColFrameEvents+1))},
		{"truncated body", payload[:len(payload)-1]},
		{"trailing bytes", append(append([]byte(nil), payload...), 0)},
		{"short for count", []byte{0, 200, 1, 2, 3}},
	}
	for _, c := range cases {
		if _, err := parsePayload(blockColFrame, c.p, new([]Event)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// binary_AppendUvarint avoids importing encoding/binary just for one
// helper call in the rejection table.
func binary_AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// TestColumnarNeedsV2: requesting columnar frames with the v1 codec must
// be rejected at writer construction.
func TestColumnarNeedsV2(t *testing.T) {
	var buf bytes.Buffer
	_, err := NewEventWriterOpts(&buf, Header{}, WriterOptions{Version: Version1, Columnar: true})
	if err == nil {
		t.Fatal("columnar v1 writer accepted")
	}
}

// TestColFrameMixedRead: a stream interleaving row and columnar frames
// for the same rank must read cleanly — readers accept both types
// wherever a frame is legal.
func TestColFrameMixedRead(t *testing.T) {
	tr := genTrace(1, 40, 13)
	evs := tr.Procs[0].Events

	var buf bytes.Buffer
	ew, err := NewEventWriterOpts(&buf, HeaderOf(tr), WriterOptions{Version: Version2, FrameEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ew.BeginProc(ProcHeader{Rank: 0, Core: tr.Procs[0].Core, Clock: tr.Procs[0].Clock, EventCount: len(evs)}); err != nil {
		t.Fatal(err)
	}
	// First half row-framed through the writer's normal path, second
	// half hand-emitted as columnar blocks on the same frameWriter.
	half := len(evs) / 2
	for i := 0; i < half; i++ {
		if err := ew.Write(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ew.fw.flushFrame(); err != nil {
		t.Fatal(err)
	}
	ew.fw.columnar = true
	ew.fw.evBuf = make([]Event, 0, len(evs)-half)
	for i := half; i < len(evs); i++ {
		if err := ew.Write(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := readAllOpts(t, buf.Bytes(), ResyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) != 0 {
		t.Fatalf("clean mixed read produced incidents: %+v", rep.Incidents)
	}
	if len(got[0]) != len(evs) {
		t.Fatalf("got %d events, want %d", len(got[0]), len(evs))
	}
	for i := range evs {
		if !sameEventBits(got[0][i], evs[i]) {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestColFrameTruncatedTail: truncating a columnar file mid-block loses
// the tail frames but salvages everything before them.
func TestColFrameTruncatedTail(t *testing.T) {
	tr := genTrace(2, 100, 41)
	data := v2ColBytes(t, tr, 8)
	cut := len(data) - len(data)/4
	got, rep, err := readAllOpts(t, data[:cut], ResyncPolicy{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostEvents == 0 && !rep.UnknownLoss {
		t.Fatal("truncation reported no loss")
	}
	for r, p := range tr.Procs {
		if !isSubsequence(got[r], p.Events) {
			t.Fatalf("rank %d salvaged events are not a subsequence", r)
		}
	}
}

// TestColFrameEventOrderPreserved: the column transform must not reorder
// events — a quick structural check on the raw payload layout.
func TestColFrameEventOrderPreserved(t *testing.T) {
	evs := []Event{
		{Kind: Send, Time: 1, True: 1.5, Partner: 1},
		{Kind: Recv, Time: 2, True: 2.5, Partner: 0},
		{Kind: Enter, Time: 3, True: 3.5},
	}
	p := appendColFrame(nil, evs)
	wantKinds := []byte{byte(Send), byte(Recv), byte(Enter)}
	if !bytes.Equal(p[:3], wantKinds) {
		t.Fatalf("kind column = %v, want %v", p[:3], wantKinds)
	}
	payload := append([]byte{0, 3}, p...)
	parsed, err := parsePayload(blockColFrame, payload, new([]Event))
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if !sameEventBits(parsed.decoded[i], evs[i]) {
			t.Fatalf("event %d differs after decode", i)
		}
	}
}

// TestFrameLayoutsIndistinguishable: a row file and a columnar file of
// the same events are one thing to a reader's caller. Clean, they deliver
// the same events; with the same field of the same block damaged (one
// flipped bit, or the file cut there) both are refused or both salvaged,
// and the same events survive, through EventReader and through a
// FrameDecoder over one rank's section, strict and resync.
func TestFrameLayoutsIndistinguishable(t *testing.T) {
	tr := genTrace(3, 120, 23)
	files := [2][]byte{v2Bytes(t, tr, 8), v2ColBytes(t, tr, 8)}
	var offs [2][]int
	var procs []int // indices of the proc blocks, the same in both files
	for l, data := range files {
		var typs []byte
		offs[l], typs = findBlocks(t, data)
		procs = procs[:0]
		for i, typ := range typs {
			if typ == blockProc {
				procs = append(procs, i)
			}
		}
	}
	if len(offs[0]) != len(offs[1]) || len(procs) != 3 {
		t.Fatalf("fixture: %d and %d blocks, %d proc blocks", len(offs[0]), len(offs[1]), len(procs))
	}
	// at maps "field k of block b" onto a byte of layout l's file: the
	// marker (k 0-3), the type, the first length byte, the checksum
	// (6-9), or, past those, the byte frac of the way into the payload
	at := func(l, b, k int, frac float64) int {
		off := offs[l][b]
		_, plen, hlen, _, err := parseBlockHead(files[l][off:min(off+blockHeadMax, len(files[l]))])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case k <= markerLen+1:
			return off + k
		case k <= markerLen+5:
			return off + hlen - 4 + k - (markerLen + 2)
		}
		return off + hlen + int(frac*float64(plen))
	}
	type outcome struct {
		events    map[int][]Event // EventReader, by rank
		failed    bool
		incidents int
		lost      int64
		unknown   bool
		section   []Event // FrameDecoder over rank 1's section
		secFailed bool
	}
	read := func(l int, data []byte, pol ResyncPolicy) outcome {
		var o outcome
		var rep *CorruptionReport
		var err error
		o.events, rep, err = readAllOpts(t, data, pol)
		o.failed = err != nil
		if rep != nil {
			o.incidents, o.lost, o.unknown = len(rep.Incidents), rep.LostEvents, rep.UnknownLoss
		}
		start, end := offs[l][procs[1]+1], min(offs[l][procs[2]], len(data))
		if start > end {
			return o
		}
		d := NewFrameDecoder(bytes.NewReader(data[start:end]), int64(start), 1, pol)
		batch := make([]Event, 7)
		for err = nil; err == nil; {
			var n int
			n, err = d.DecodeBatch(batch)
			o.section = append(o.section, batch[:n]...)
		}
		o.secFailed = err != io.EOF
		return o
	}
	same := func(what string, mut [2][]byte) {
		t.Helper()
		for _, pol := range []ResyncPolicy{{}, {Enabled: true}} {
			if row, col := read(0, mut[0], pol), read(1, mut[1], pol); !reflect.DeepEqual(row, col) {
				t.Errorf("%s, resync %v: the layouts read differently\nrow      failed=%v/%v incidents=%d lost=%d unknown=%v\ncolumnar failed=%v/%v incidents=%d lost=%d unknown=%v",
					what, pol.Enabled, row.failed, row.secFailed, row.incidents, row.lost, row.unknown,
					col.failed, col.secFailed, col.incidents, col.lost, col.unknown)
			}
		}
	}
	same("clean", files)
	if clean := read(0, files[0], ResyncPolicy{}); clean.failed || clean.secFailed || !reflect.DeepEqual(clean.section, tr.Procs[1].Events) {
		t.Fatal("the clean row file does not read back")
	}
	rng := xrand.NewSource(99)
	for trial := 0; trial < 80; trial++ {
		b, k, frac, bit := rng.Intn(len(offs[0])), rng.Intn(2*(markerLen+6)), rng.Uniform(0, 1), byte(1<<rng.Intn(8))
		var flipped, cut [2][]byte
		for l, data := range files {
			i := at(l, b, k, frac)
			flipped[l] = append([]byte(nil), data...)
			flipped[l][i] ^= bit
			cut[l] = data[:i]
		}
		same(fmt.Sprintf("trial %d: block %d field %d bit %#x flipped", trial, b, k, bit), flipped)
		same(fmt.Sprintf("trial %d: cut at block %d field %d", trial, b, k), cut)
	}
}
