package trace

// Incremental codec access. Read and Write materialize whole traces; the
// types here expose the same .etr encoding one process and one event at a
// time, so million-event traces can flow through analyses in O(1) memory
// per rank (internal/stream). Read and Write are thin wrappers over
// EventReader and EventWriter — both paths share a single encoder and
// decoder, which is what makes the streaming pipeline's output
// bit-identical to the in-memory one by construction rather than by
// testing alone.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tsync/internal/topology"
)

// Format limits enforced by the decoder (see decodeChunk for why counts
// are never trusted with pre-allocations).
const (
	maxStringLen  = 1 << 16
	maxRegions    = 1 << 24
	maxProcs      = 1 << 24
	maxProcEvents = 1 << 30
)

// Header is a trace file's global metadata: everything before the first
// per-process stream.
type Header struct {
	Machine    string
	Timer      string
	MinLatency [4]float64
	Regions    []string
	ProcCount  int
}

// HeaderOf extracts the header of an in-memory trace.
func HeaderOf(t *Trace) Header {
	return Header{
		Machine:    t.Machine,
		Timer:      t.Timer,
		MinLatency: t.MinLatency,
		Regions:    t.Regions,
		ProcCount:  len(t.Procs),
	}
}

// MinLatencyBetween returns l_min for a message between two cores, as
// Trace.MinLatencyBetween does for ranks.
func (h *Header) MinLatencyBetween(a, b topology.CoreID) float64 {
	return h.MinLatency[topology.Relate(a, b)]
}

// ProcHeader is one process's stream metadata: the fields of Proc minus
// the events themselves.
type ProcHeader struct {
	Rank       int
	Core       topology.CoreID
	Clock      string
	EventCount int
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// EventReader decodes a .etr stream incrementally: the header up front,
// then one process at a time, then one event at a time. It never
// allocates ahead of the bytes actually consumed, and reports truncated
// or corrupt input as ErrBadFormat exactly like Read (whose
// implementation it is). Both codec versions are read through the same
// interface; v2 streams additionally support resynchronizing past
// corruption under a ResyncPolicy (see NewEventReaderOpts).
type EventReader struct {
	br        *bufio.Reader
	cr        *countingReader
	header    Header
	procsRead int // processes whose header has been returned
	remaining int // events left in the current process (-1: unknown, v2 salvage)
	inProc    bool
	version   int
	curRank   int // rank of the current process, -1 before the first

	// v2 state
	pol          ResyncPolicy
	blk          blockReader
	rep          CorruptionReport
	frame        drain  // the current frame's undelivered events
	pending      parsed // block that ended the current section, not yet consumed
	pendingStart int64
	hasPending   bool
	sectionStart int64 // where the current process's event bytes begin
	gap          bool  // a resync gap precedes the next event (see TookGap)
}

// NewEventReader reads and validates the file header with a strict (no
// resync) policy.
func NewEventReader(r io.Reader) (*EventReader, error) {
	return NewEventReaderOpts(r, ResyncPolicy{})
}

// NewEventReaderOpts reads and validates the file header. The policy
// governs corruption handling for v2 streams; the header itself must be
// intact regardless — it is the trust root resync depends on.
func NewEventReaderOpts(r io.Reader, pol ResyncPolicy) (*EventReader, error) {
	cr := &countingReader{r: r}
	var br *bufio.Reader
	if pol.Enabled {
		br = bufio.NewReaderSize(cr, scanWindow)
	} else {
		br = bufio.NewReader(cr)
	}
	er := &EventReader{br: br, cr: cr, pol: pol, curRank: -1}
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, badFormat("header", err)
	}
	if ver != codecVersion && ver != codecVersion2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	er.version = int(ver)
	h := &er.header
	if h.Machine, err = readString(br, maxStringLen); err != nil {
		return nil, badFormat("header", err)
	}
	if h.Timer, err = readString(br, maxStringLen); err != nil {
		return nil, badFormat("header", err)
	}
	for i := range h.MinLatency {
		if h.MinLatency[i], err = readFloat(br); err != nil {
			return nil, badFormat("header", err)
		}
	}
	nRegions, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, badFormat("header", err)
	}
	if nRegions > maxRegions {
		return nil, fmt.Errorf("%w: region table declares %d entries (limit %d)", ErrBadFormat, nRegions, maxRegions)
	}
	h.Regions = make([]string, 0, min(nRegions, decodeChunk))
	for i := uint64(0); i < nRegions; i++ {
		s, err := readString(br, maxStringLen)
		if err != nil {
			return nil, badFormat("region table", err)
		}
		h.Regions = append(h.Regions, s)
	}
	nProcs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, badFormat("header", err)
	}
	if nProcs > maxProcs {
		return nil, fmt.Errorf("%w: trace declares %d processes (limit %d)", ErrBadFormat, nProcs, maxProcs)
	}
	h.ProcCount = int(nProcs)
	if er.version == codecVersion2 {
		er.blk = blockReader{
			br:     br,
			pos:    er.Offset,
			rank:   func() int { return er.curRank },
			accept: er.acceptBlock,
			pol:    pol,
			rep:    &er.rep,
		}
	}
	return er, nil
}

// acceptBlock is the EventReader's semantic filter for v2 blocks:
// process headers must advance the rank, frames may only belong to the
// current or a later rank (an earlier rank's frame after this point is a
// stale duplicate — misleading if trusted). Blocks that fail it are
// corruption, handled by the caller's policy like any other.
func (er *EventReader) acceptBlock(typ byte, rank int) bool {
	if rank >= er.header.ProcCount {
		return false
	}
	if typ == blockProc {
		return rank > er.curRank
	}
	return rank >= er.curRank
}

// Header returns the file header. The Regions slice is shared, not
// copied.
func (er *EventReader) Header() Header { return er.header }

// Version reports the codec version of the stream (Version1 or
// Version2).
func (er *EventReader) Version() int { return er.version }

// Report exposes the corruption incidents recovered from so far. The
// pointer stays valid and updates as reading proceeds; it is empty for
// v1 streams and strict-mode readers (which fail instead).
func (er *EventReader) Report() *CorruptionReport { return &er.rep }

// Offset reports how many bytes of the underlying stream have been
// consumed by what the reader has returned so far — the file position of
// the next unread element, independent of internal buffering.
func (er *EventReader) Offset() int64 {
	return er.cr.n - int64(er.br.Buffered())
}

// Position is Offset adjusted for look-ahead: when the reader has peeked
// at (but not yet delivered) the block that ends the current process's
// section, Position reports where that block starts. After draining a
// process it is the exclusive end of the process's byte section.
func (er *EventReader) Position() int64 {
	if er.hasPending {
		return er.pendingStart
	}
	return er.Offset()
}

// SectionStart reports where the current process's event bytes begin —
// after its process header, or at its first salvaged frame when the
// header itself was lost.
func (er *EventReader) SectionStart() int64 { return er.sectionStart }

// TookGap reports — and clears — whether a resync gap (skipped bytes or
// known-lost events) precedes the next event of the current process.
// Callers indexing a stream poll it after every read to record where
// happened-before knowledge was severed.
func (er *EventReader) TookGap() bool {
	g := er.gap
	er.gap = false
	return g
}

// bad wraps a decode error with the stream position and rank being read,
// so corruption reports are actionable without a hex dump.
func (er *EventReader) bad(what string, err error) error {
	return badFormat(fmt.Sprintf("%s (at byte %d, rank %d)", what, er.Offset(), er.curRank), err)
}

// NextProc advances to the next process, skipping any events of the
// current one that were not read. It returns io.EOF after the last
// process.
func (er *EventReader) NextProc() (ProcHeader, error) {
	if er.version == codecVersion2 {
		return er.nextProcV2()
	}
	for er.remaining > 0 {
		var ev Event
		if err := er.Read(&ev); err != nil {
			return ProcHeader{}, err
		}
	}
	if er.procsRead == er.header.ProcCount {
		er.inProc = false
		return ProcHeader{}, io.EOF
	}
	var ph ProcHeader
	rank, err := binary.ReadUvarint(er.br)
	if err != nil {
		return ProcHeader{}, er.bad("process header", err)
	}
	ph.Rank = int(rank)
	var core [3]uint64
	for j := range core {
		if core[j], err = binary.ReadUvarint(er.br); err != nil {
			return ProcHeader{}, er.bad("process header", err)
		}
	}
	ph.Core = topology.CoreID{Node: int(core[0]), Chip: int(core[1]), Core: int(core[2])}
	if ph.Clock, err = readString(er.br, maxStringLen); err != nil {
		return ProcHeader{}, er.bad("process header", err)
	}
	nEvents, err := binary.ReadUvarint(er.br)
	if err != nil {
		return ProcHeader{}, er.bad("event count", err)
	}
	if nEvents > maxProcEvents {
		return ProcHeader{}, fmt.Errorf("%w: rank %d declares %d events (limit %d)", ErrBadFormat, ph.Rank, nEvents, maxProcEvents)
	}
	ph.EventCount = int(nEvents)
	er.procsRead++
	er.curRank = ph.Rank
	er.remaining = ph.EventCount
	er.inProc = true
	er.sectionStart = er.Offset()
	return ph, nil
}

// nextProcV2 is NextProc for framed streams: it drains the current
// section, then consumes either the stashed boundary block or the next
// block from the stream. A proc block starts the next process normally;
// a frame block where a header was expected means the header was
// destroyed — strict readers fail, resync readers synthesize a
// placeholder header (EventCount -1, unknown) and salvage the frames.
func (er *EventReader) nextProcV2() (ProcHeader, error) {
	var ev Event
	for er.inProc {
		err := er.readV2(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return ProcHeader{}, err
		}
	}
	if er.procsRead == er.header.ProcCount {
		er.inProc = false
		return ProcHeader{}, io.EOF
	}
	var p parsed
	var pstart int64
	if er.hasPending {
		p, pstart = er.pending, er.pendingStart
		er.hasPending = false
	} else {
		nInc := len(er.rep.Incidents)
		var err error
		p, pstart, err = er.blk.nextBlock()
		if err == io.EOF {
			er.inProc = false
			if er.procsRead < er.header.ProcCount {
				if !er.pol.Enabled {
					return ProcHeader{}, er.bad("process header", io.ErrUnexpectedEOF)
				}
				if len(er.rep.Incidents) == nInc {
					er.rep.note(er.Offset(), er.curRank, 0,
						fmt.Sprintf("%d declared processes missing at end of stream", er.header.ProcCount-er.procsRead))
				}
				er.rep.UnknownLoss = true
			}
			return ProcHeader{}, io.EOF
		}
		if err != nil {
			return ProcHeader{}, err
		}
	}
	if p.typ == blockProc {
		ph := p.ph
		er.procsRead++
		er.curRank = ph.Rank
		er.remaining = ph.EventCount
		er.inProc = true
		er.gap = false
		er.frame = drain{}
		er.sectionStart = er.Offset()
		return ph, nil
	}
	if !er.pol.Enabled {
		return ProcHeader{}, er.bad("process header", errors.New("frame block where a process header was expected"))
	}
	ph := ProcHeader{Rank: p.rank, Clock: "?", EventCount: -1}
	er.rep.UnknownLoss = true
	er.procsRead++
	er.curRank = p.rank
	er.remaining = -1
	er.inProc = true
	er.gap = true
	er.frame = drain{evs: p.decoded}
	er.sectionStart = pstart
	return ph, nil
}

// Read decodes the current process's next event into ev. It returns
// io.EOF when the process's declared events are exhausted (call NextProc
// to continue) and ErrBadFormat when the stream ends or corrupts
// mid-event — unless a resync policy turns the corruption into a
// reported gap instead.
func (er *EventReader) Read(ev *Event) error {
	if !er.inProc {
		return fmt.Errorf("trace: EventReader.Read before NextProc") //tsync:rawerr — caller API misuse, not trace damage; classifying it would misdirect the corruption dispatch
	}
	if er.version == codecVersion2 {
		return er.readV2(ev)
	}
	if er.remaining == 0 {
		return io.EOF
	}
	if err := readEventFast(er.br, ev); err != nil {
		return er.bad("events", err)
	}
	er.remaining--
	return nil
}

// readV2 delivers the next event of the current process from its
// frames. The current section ends — io.EOF — when the declared events
// are exhausted, or at the first block belonging to a later process
// (stashed for NextProc), or at end of stream.
func (er *EventReader) readV2(ev *Event) error {
	for {
		if er.frame.next(ev) {
			if er.remaining > 0 {
				er.remaining--
			}
			return nil
		}
		if er.remaining == 0 || er.hasPending {
			return io.EOF
		}
		nInc := len(er.rep.Incidents)
		p, pstart, err := er.blk.nextBlock()
		if err == io.EOF {
			if er.remaining > 0 {
				if !er.pol.Enabled {
					return er.bad("events", io.ErrUnexpectedEOF)
				}
				er.rep.LostEvents += int64(er.remaining)
				if len(er.rep.Incidents) == nInc {
					er.rep.note(er.Offset(), er.curRank, 0, "declared events missing at end of stream")
				}
				er.gap = true
			}
			er.remaining = 0
			return io.EOF
		}
		if err != nil {
			return err
		}
		if len(er.rep.Incidents) > nInc {
			er.gap = true
		}
		if p.typ != blockProc && p.rank == er.curRank {
			if er.remaining > 0 && len(p.decoded) > er.remaining {
				if !er.pol.Enabled {
					return er.bad("frame", fmt.Errorf("frame of %d events exceeds the %d still declared", len(p.decoded), er.remaining))
				}
				// The declared count and the frames disagree; the frames
				// are checksummed, the count may not be. Keep the events,
				// stop trusting the count.
				er.rep.UnknownLoss = true
				er.remaining = -1
			}
			er.frame = drain{evs: p.decoded}
			continue
		}
		// A block of a later process: the current section ends here.
		if er.remaining > 0 {
			if !er.pol.Enabled {
				return er.bad("events", fmt.Errorf("process ended with %d declared events missing", er.remaining))
			}
			er.rep.LostEvents += int64(er.remaining)
			if len(er.rep.Incidents) == nInc {
				er.rep.note(pstart, er.curRank, 0, "declared events missing before next block")
			}
			er.gap = true
		}
		er.pending, er.pendingStart, er.hasPending = p, pstart, true
		er.remaining = 0
		return io.EOF
	}
}

// EventWriter encodes a .etr stream incrementally, mirroring EventReader.
// The codec stores each process's event count before its events, so
// BeginProc must be told the count up front; Close verifies every
// declared process and event was actually written.
type EventWriter struct {
	bw        *bufio.Writer
	cw        *countingWriter
	procCount int
	begun     int
	remaining int // events still owed to the current process
	scratch   []byte
	fw        *frameWriter // non-nil when writing v2 framed blocks
}

// NewEventWriter writes a v1 file header and returns a writer positioned
// before the first process.
func NewEventWriter(w io.Writer, h Header) (*EventWriter, error) {
	return NewEventWriterOpts(w, h, WriterOptions{})
}

// NewEventWriterOpts is NewEventWriter with an explicit codec version
// and frame geometry. The zero options produce bytes identical to
// NewEventWriter.
func NewEventWriterOpts(w io.Writer, h Header, o WriterOptions) (*EventWriter, error) {
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	ew := &EventWriter{bw: bw, cw: cw, procCount: h.ProcCount, scratch: make([]byte, 0, maxEventSize)}
	if o.Version == Version2 {
		ew.fw = newFrameWriter(bw, o.FrameEvents, o.Columnar)
	}
	if _, err := bw.WriteString(codecMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(o.Version)); err != nil {
		return nil, err
	}
	if err := writeString(bw, h.Machine); err != nil {
		return nil, err
	}
	if err := writeString(bw, h.Timer); err != nil {
		return nil, err
	}
	for _, l := range h.MinLatency {
		if err := writeFloat(bw, l); err != nil {
			return nil, err
		}
	}
	if err := writeUvarint(bw, uint64(len(h.Regions))); err != nil {
		return nil, err
	}
	for _, r := range h.Regions {
		if err := writeString(bw, r); err != nil {
			return nil, err
		}
	}
	if err := writeUvarint(bw, uint64(h.ProcCount)); err != nil {
		return nil, err
	}
	return ew, nil
}

// Offset reports how many bytes have reached the underlying writer plus
// what is buffered — the file position after everything written so far.
func (ew *EventWriter) Offset() int64 {
	return ew.cw.n + int64(ew.bw.Buffered())
}

// BeginProc writes the next process header. The previous process must
// have received exactly its declared events.
func (ew *EventWriter) BeginProc(ph ProcHeader) error {
	if ew.remaining != 0 {
		return fmt.Errorf("trace: BeginProc with %d events still owed to the previous process", ew.remaining)
	}
	if ew.begun == ew.procCount {
		return fmt.Errorf("trace: BeginProc beyond the declared %d processes", ew.procCount)
	}
	if ew.fw != nil {
		if err := ew.fw.beginProc(ph); err != nil {
			return err
		}
		ew.begun++
		ew.remaining = ph.EventCount
		return nil
	}
	if err := writeUvarint(ew.bw, uint64(ph.Rank)); err != nil {
		return err
	}
	for _, c := range [3]int{ph.Core.Node, ph.Core.Chip, ph.Core.Core} {
		if err := writeUvarint(ew.bw, uint64(c)); err != nil {
			return err
		}
	}
	if err := writeString(ew.bw, ph.Clock); err != nil {
		return err
	}
	if err := writeUvarint(ew.bw, uint64(ph.EventCount)); err != nil {
		return err
	}
	ew.begun++
	ew.remaining = ph.EventCount
	return nil
}

// Write encodes one event of the current process. The encoding goes
// through a writer-owned scratch buffer, so the call allocates nothing.
func (ew *EventWriter) Write(ev *Event) error {
	if ew.remaining == 0 {
		return fmt.Errorf("trace: Write beyond the process's declared event count")
	}
	if ew.fw != nil {
		if err := ew.fw.add(ev); err != nil {
			return err
		}
		ew.remaining--
		return nil
	}
	ew.scratch = appendEvent(ew.scratch[:0], ev)
	if _, err := ew.bw.Write(ew.scratch); err != nil {
		return err
	}
	ew.remaining--
	return nil
}

// Close flushes the stream after verifying that every declared process
// and event was written. It does not close the underlying writer.
func (ew *EventWriter) Close() error {
	if ew.remaining != 0 {
		return fmt.Errorf("trace: Close with %d events still owed to the current process", ew.remaining)
	}
	if ew.begun != ew.procCount {
		return fmt.Errorf("trace: Close after %d of %d declared processes", ew.begun, ew.procCount)
	}
	if ew.fw != nil {
		if err := ew.fw.flushFrame(); err != nil {
			return err
		}
	}
	return ew.bw.Flush()
}

// decoderBufSize sizes the decoder's read buffer: large enough that the
// per-event Peek refill (a memmove plus a read) amortizes over a few
// hundred events.
const decoderBufSize = 1 << 15

// EventDecoder reads bare event encodings (no header) from a stream. It
// returns io.EOF at a clean boundary and ErrBadFormat mid-event.
type EventDecoder struct {
	br *bufio.Reader
	cr countingReader
}

// NewEventDecoder returns a decoder over r.
func NewEventDecoder(r io.Reader) *EventDecoder {
	d := &EventDecoder{}
	d.cr = countingReader{r: r}
	d.br = bufio.NewReaderSize(&d.cr, decoderBufSize)
	return d
}

// Decode reads the next event into ev.
func (d *EventDecoder) Decode(ev *Event) error {
	if _, err := d.br.Peek(1); err == io.EOF {
		return io.EOF
	}
	if err := readEventFast(d.br, ev); err != nil {
		return badFormat(fmt.Sprintf("events (at byte %d)", d.cr.n-int64(d.br.Buffered())), err)
	}
	return nil
}

// DecodeBatch decodes up to len(evs) events into evs, returning how many
// were filled. A clean end of stream surfaces as (n, io.EOF) with n
// possibly zero; corruption mid-event reports ErrBadFormat. The tight
// loop exists for the slab stages of internal/stream: one call decodes a
// whole slab without per-event interface dispatch in the caller.
func (d *EventDecoder) DecodeBatch(evs []Event) (int, error) {
	i := 0
	for i < len(evs) {
		// Fast path: decode straight out of the buffered bytes while a
		// whole worst-case event provably fits, then discard the chunk in
		// one step. The tail (or a malformed event) falls through to
		// Decode, which refills the buffer and classifies errors with the
		// exact position — the two paths accept identical byte sequences.
		buf, _ := d.br.Peek(d.br.Buffered())
		consumed := 0
		for i < len(evs) && len(buf)-consumed >= maxEventSize {
			n, ok := decodeEvent(buf[consumed:], &evs[i])
			if !ok {
				break
			}
			consumed += n
			i++
		}
		if consumed > 0 {
			if _, err := d.br.Discard(consumed); err != nil {
				return i, err
			}
			continue
		}
		if err := d.Decode(&evs[i]); err != nil {
			return i, err
		}
		i++
	}
	return len(evs), nil
}
