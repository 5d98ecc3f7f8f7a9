package trace

// Tests for the v2 checksummed framing: clean round trips must match v1
// semantics exactly, and corruption recovery must be deterministic,
// budgeted, and incapable of fabricating events.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"tsync/internal/topology"
	"tsync/internal/xrand"
)

// genTrace builds a deterministic multi-rank trace of random events.
func genTrace(ranks, events int, seed uint64) *Trace {
	rng := xrand.NewSource(seed)
	t := &Trace{Machine: "m", Timer: "TSC"}
	for r := 0; r < ranks; r++ {
		p := Proc{Rank: r, Core: topology.CoreID{Node: r}, Clock: fmt.Sprintf("TSC@%d", r)}
		for i := 0; i < events; i++ {
			p.Events = append(p.Events, randomEvent(rng))
		}
		t.Procs = append(t.Procs, p)
	}
	return t
}

// v2Bytes encodes tr in the v2 codec.
func v2Bytes(t testing.TB, tr *Trace, frameEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteOpts(&buf, tr, WriterOptions{Version: Version2, FrameEvents: frameEvents}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAllOpts reads a whole stream through the incremental reader under
// pol, returning per-rank event lists keyed by the rank each process
// header (real or synthesized) declared.
func readAllOpts(t testing.TB, data []byte, pol ResyncPolicy) (map[int][]Event, *CorruptionReport, error) {
	t.Helper()
	er, err := NewEventReaderOpts(bytes.NewReader(data), pol)
	if err != nil {
		return nil, nil, err
	}
	got := map[int][]Event{}
	for {
		ph, err := er.NextProc()
		if err == io.EOF {
			return got, er.Report(), nil
		}
		if err != nil {
			return got, er.Report(), err
		}
		for {
			var ev Event
			err := er.Read(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				return got, er.Report(), err
			}
			got[ph.Rank] = append(got[ph.Rank], ev)
		}
	}
}

// TestFrameRoundTrip: a v2 encode/decode cycle must reproduce the trace
// exactly, across frame geometries including degenerate ones.
func TestFrameRoundTrip(t *testing.T) {
	for _, frameEvents := range []int{0, 1, 3, 256} {
		tr := genTrace(3, 50, 11)
		data := v2Bytes(t, tr, frameEvents)
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
			t.Fatalf("frameEvents=%d: v2 round trip changed the trace", frameEvents)
		}
	}
}

// TestFrameRoundTripTiny covers the string/collective edge cases of the
// shared tiny fixture, plus the streaming reader interface.
func TestFrameRoundTripTiny(t *testing.T) {
	tr := tinyTrace()
	data := v2Bytes(t, tr, 2)
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

// findBlocks walks the block structure of a clean v2 file, returning the
// offset and type of every block.
func findBlocks(t testing.TB, data []byte) (offs []int, typs []byte) {
	t.Helper()
	i := bytes.Index(data, frameMarker[:])
	if i < 0 {
		t.Fatal("no blocks in v2 file")
	}
	for i < len(data) {
		typ, plen, hlen, _, err := parseBlockHead(data[i:min(i+blockHeadMax, len(data))])
		if err != nil {
			t.Fatalf("block walk broke at %d: %v", i, err)
		}
		offs = append(offs, i)
		typs = append(typs, typ)
		i += hlen + plen
	}
	return offs, typs
}

// isSubsequence reports whether sub appears in order (not necessarily
// contiguously) within full, comparing canonical encodings.
func isSubsequence(sub, full []Event) bool {
	j := 0
	for i := range sub {
		found := false
		for ; j < len(full); j++ {
			if sameEventBits(sub[i], full[j]) {
				j++
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestFrameSingleFlipSalvage: for single-byte corruptions sampled across
// the block region, strict reads must fail (or be unaffected is
// impossible: every block byte is covered by structure or checksum) and
// resync reads must terminate, report the incident, and deliver a
// per-rank subsequence of the original events — drops allowed,
// fabrications not.
func TestFrameSingleFlipSalvage(t *testing.T) {
	tr := genTrace(3, 120, 23)
	data := v2Bytes(t, tr, 8)
	firstBlock := bytes.Index(data, frameMarker[:])
	rng := xrand.NewSource(99)
	for trial := 0; trial < 60; trial++ {
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
		total := 0
		for r, p := range tr.Procs {
			if !isSubsequence(got[r], p.Events) {
				t.Fatalf("trial %d (byte %d): rank %d salvaged events are not a subsequence of the original", trial, off, r)
			}
			total += len(got[r])
		}
		if total < 3*120-3*120/4 {
			t.Fatalf("trial %d (byte %d): one flipped byte lost %d of %d events", trial, off, 3*120-total, 3*120)
		}
	}
}

// TestFrameResyncDeterminism: the same corrupt bytes must salvage to the
// same events and the same report, every time.
func TestFrameResyncDeterminism(t *testing.T) {
	tr := genTrace(4, 200, 31)
	data := v2Bytes(t, tr, 16)
	firstBlock := bytes.Index(data, frameMarker[:])
	rng := xrand.NewSource(7)
	mut := append([]byte(nil), data...)
	for i := 0; i < 20; i++ {
		mut[firstBlock+rng.Intn(len(mut)-firstBlock)] ^= byte(1 + rng.Intn(255))
	}
	got1, rep1, err1 := readAllOpts(t, mut, ResyncPolicy{Enabled: true})
	got2, rep2, err2 := readAllOpts(t, mut, ResyncPolicy{Enabled: true})
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("same corrupt input salvaged different events across reads")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("same corrupt input produced different reports:\n%+v\n%+v", rep1, rep2)
	}
}

// TestFrameProcHeaderLoss: destroying a proc block must synthesize a
// placeholder header in resync mode and still deliver the rank's frames.
func TestFrameProcHeaderLoss(t *testing.T) {
	tr := genTrace(3, 40, 5)
	data := v2Bytes(t, tr, 8)
	offs, typs := findBlocks(t, data)
	// Corrupt the second proc block (rank 1's header).
	procSeen := 0
	target := -1
	for i, typ := range typs {
		if typ == blockProc {
			procSeen++
			if procSeen == 2 {
				target = offs[i]
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no second proc block found")
	}
	mut := append([]byte(nil), data...)
	mut[target+blockHeadMax] ^= 0xFF // inside the payload: CRC catches it

	er, err := NewEventReaderOpts(bytes.NewReader(mut), ResyncPolicy{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var phs []ProcHeader
	for {
		ph, err := er.NextProc()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			var ev Event
			if err := er.Read(&ev); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if ph.Rank == 1 && n == 0 {
			t.Fatal("rank 1 salvaged no events")
		}
		phs = append(phs, ph)
	}
	if len(phs) != 3 {
		t.Fatalf("got %d processes, want 3", len(phs))
	}
	if phs[1].Rank != 1 || phs[1].EventCount != -1 || phs[1].Clock != "?" {
		t.Fatalf("rank 1 header not synthesized: %+v", phs[1])
	}
	if !er.Report().UnknownLoss {
		t.Fatal("destroyed proc header did not set UnknownLoss")
	}
}

// TestFrameTruncationSalvage: cutting the file mid-stream must salvage
// everything up to the cut and count the declared remainder as lost.
func TestFrameTruncationSalvage(t *testing.T) {
	tr := genTrace(2, 60, 13)
	data := v2Bytes(t, tr, 8)
	cut := len(data) - len(data)/4
	got, rep, err := readAllOpts(t, data[:cut], ResyncPolicy{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 60 {
		t.Fatalf("rank 0: got %d events, want all 60", len(got[0]))
	}
	if len(got[1]) == 60 {
		t.Fatal("truncation lost nothing?")
	}
	if rep.LostEvents != int64(60-len(got[1])) {
		t.Fatalf("LostEvents = %d, want %d", rep.LostEvents, 60-len(got[1]))
	}
	if !isSubsequence(got[1], tr.Procs[1].Events) {
		t.Fatal("salvaged events are not a subsequence")
	}
}

// TestFrameSalvageBudget: the byte budget must convert runaway salvage
// into ErrSalvageBudget.
func TestFrameSalvageBudget(t *testing.T) {
	tr := genTrace(2, 60, 17)
	data := v2Bytes(t, tr, 8)
	offs, typs := findBlocks(t, data)
	var frameOff int
	for i, typ := range typs {
		if typ == blockFrame {
			frameOff = offs[i]
			break
		}
	}
	mut := append([]byte(nil), data...)
	mut[frameOff+blockHeadMax] ^= 0xFF

	if _, _, err := readAllOpts(t, mut, ResyncPolicy{Enabled: true, MaxSkipBytes: 1}); !errors.Is(err, ErrSalvageBudget) {
		t.Fatalf("MaxSkipBytes=1: got %v, want ErrSalvageBudget", err)
	}
	// An unlimited budget must accept the same input.
	if _, _, err := readAllOpts(t, mut, ResyncPolicy{Enabled: true}); err != nil {
		t.Fatalf("unbudgeted resync failed: %v", err)
	}
}

// TestFrameMarkerCollision: event payloads that contain the sync marker
// byte sequence must not derail resync — a collision candidate fails
// validation and the scan moves on to the real next block.
func TestFrameMarkerCollision(t *testing.T) {
	tr := genTrace(2, 40, 3)
	// Plant the marker inside Time fields throughout rank 0 and 1.
	evil := math.Float64frombits(uint64(frameMarker[0]) | uint64(frameMarker[1])<<8 |
		uint64(frameMarker[2])<<16 | uint64(frameMarker[3])<<24 | uint64(blockFrame)<<32)
	for r := range tr.Procs {
		for i := range tr.Procs[r].Events {
			if i%3 == 0 {
				tr.Procs[r].Events[i].Time = evil
			}
		}
	}
	data := v2Bytes(t, tr, 4)
	offs, typs := findBlocks(t, data)
	var frameOff int
	for i, typ := range typs {
		if typ == blockFrame {
			frameOff = offs[i]
			break
		}
	}
	mut := append([]byte(nil), data...)
	mut[frameOff] ^= 0x01 // destroy the real marker, forcing a scan over collision bytes

	got, rep, err := readAllOpts(t, mut, ResyncPolicy{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) == 0 {
		t.Fatal("no incident recorded")
	}
	for r, p := range tr.Procs {
		if !isSubsequence(got[r], p.Events) {
			t.Fatalf("rank %d: collision scan fabricated or reordered events", r)
		}
	}
	if len(got[0])+len(got[1]) < 2*40-8 {
		t.Fatalf("collision scan lost too much: %d+%d of 80", len(got[0]), len(got[1]))
	}
}

// TestFrameErrorContext: strict v2 errors must carry the byte offset and
// rank, and remain ErrBadFormat.
func TestFrameErrorContext(t *testing.T) {
	tr := genTrace(2, 40, 29)
	data := v2Bytes(t, tr, 8)
	offs, typs := findBlocks(t, data)
	var frameOff int
	for i, typ := range typs {
		if typ == blockFrame {
			frameOff = offs[i]
			break
		}
	}
	mut := append([]byte(nil), data...)
	mut[frameOff+blockHeadMax] ^= 0xFF
	_, _, err := readAllOpts(t, mut, ResyncPolicy{})
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
	if !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("error lacks byte offset context: %v", err)
	}
}

// TestFrameV2WriterAllocs pins the v2 framed write hot path to zero
// allocations per event at steady state.
func TestFrameV2WriterAllocs(t *testing.T) {
	ew, err := NewEventWriterOpts(io.Discard, Header{ProcCount: 1}, WriterOptions{Version: Version2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	if err := ew.BeginProc(ProcHeader{EventCount: n}); err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: Recv, Time: 4.5, True: 5.5, Partner: 0, Tag: 9, Region: -1, Root: -1}
	// Warm the frame buffers to their steady-state capacity first.
	for i := 0; i < 4096; i++ {
		if err := ew.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(4000, func() {
		if err := ew.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("v2 EventWriter.Write allocates %.2f per event, want 0", avg)
	}
}

// TestFrameDecoderAllocs pins FrameDecoder's strict decode hot path, row
// and columnar, to zero allocations per block at steady state. Each run
// reads one whole frame, so anything built once per block (an error
// context formatted ahead of the failure it is for, say) counts in full
// and is not averaged away over the frame's events.
func TestFrameDecoderAllocs(t *testing.T) {
	const frame = 256
	for _, columnar := range []bool{false, true} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		fw := newFrameWriter(bw, frame, columnar)
		fw.rank = 0
		rng := xrand.NewSource(43)
		for i := 0; i < 1<<15; i++ {
			ev := randomEvent(rng)
			if err := fw.add(&ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.flushFrame(); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		d := NewFrameDecoder(bytes.NewReader(buf.Bytes()), 0, 0, ResyncPolicy{})
		var ev Event
		// Warm the payload buffer and the event scratch.
		for i := 0; i < 4*frame; i++ {
			if err := d.Decode(&ev); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]Event, frame)
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := d.DecodeBatch(batch); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("columnar=%v: FrameDecoder.DecodeBatch allocates %.2f per block, want 0", columnar, avg)
		}
		if avg := testing.AllocsPerRun(frame, func() {
			if err := d.Decode(&ev); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("columnar=%v: FrameDecoder.Decode allocates %.2f per event, want 0", columnar, avg)
		}
	}
}

// TestFrameDecoderSection: FrameDecoder over one rank's byte section
// must deliver exactly that rank's events, and resync within the section
// must skip corrupt frames deterministically.
func TestFrameDecoderSection(t *testing.T) {
	tr := genTrace(3, 60, 37)
	data := v2Bytes(t, tr, 8)
	offs, typs := findBlocks(t, data)
	// Rank 1's section: from the first block after its proc header to the
	// next proc block.
	procSeen, start, end := 0, -1, len(data)
	for i, typ := range typs {
		if typ == blockProc {
			procSeen++
			if procSeen == 2 {
				start = offs[i+1]
			} else if procSeen == 3 {
				end = offs[i]
			}
		}
	}
	section := data[start:end]

	d := NewFrameDecoder(bytes.NewReader(section), 0, 1, ResyncPolicy{})
	var got []Event
	for {
		var ev Event
		if err := d.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 60 {
		t.Fatalf("decoded %d events, want 60", len(got))
	}
	for i := range got {
		if !sameEventBits(got[i], tr.Procs[1].Events[i]) {
			t.Fatalf("event %d differs", i)
		}
	}

	// Corrupt one frame mid-section: resync must drop it and continue.
	mut := append([]byte(nil), section...)
	mut[len(mut)/2] ^= 0x10
	d = NewFrameDecoder(bytes.NewReader(mut), 0, 1, ResyncPolicy{Enabled: true})
	got = got[:0]
	for {
		var ev Event
		if err := d.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(d.Report().Incidents) == 0 {
		t.Fatal("corrupt frame recovered without an incident")
	}
	if !isSubsequence(got, tr.Procs[1].Events) {
		t.Fatal("section salvage fabricated events")
	}
	if len(got) < 60-16 {
		t.Fatalf("section salvage lost %d of 60 events", 60-len(got))
	}
}

// TestCorruptionReportLossPct: the percentage guard must never divide
// by a zero or unknowable total — a destroyed header reports (0, false),
// not NaN.
func TestCorruptionReportLossPct(t *testing.T) {
	r := CorruptionReport{LostEvents: 25}
	if pct, ok := r.LossPct(75); !ok || pct != 25 { //tsync:exact — 25/(25+75) is exactly representable
		t.Errorf("LossPct(75) = (%v, %v), want (25, true)", pct, ok)
	}
	if pct, ok := r.LossPct(-25); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("LossPct(-25) = (%v, %v), want (0, false)", pct, ok)
	}
	r.UnknownLoss = true
	if pct, ok := r.LossPct(75); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("unknown loss: LossPct = (%v, %v), want (0, false)", pct, ok)
	}
	var empty CorruptionReport
	if pct, ok := empty.LossPct(0); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("empty: LossPct(0) = (%v, %v), want (0, false)", pct, ok)
	}
}
