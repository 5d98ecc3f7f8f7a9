package trace

// Self-synchronizing v2 framing. The v1 codec has no redundancy: one
// flipped byte desynchronizes the varint stream and the rest of the file
// is unreadable. Version 2 keeps the v1 header encoding (after a version
// byte of 2) but groups everything that follows into checksummed blocks:
//
//	marker [4]byte | type u8 | payloadLen uvarint | crc32c u32le | payload
//
// with two block types. A proc block (type 0) carries one process
// header, its payload encoded exactly as in v1 (rank, core, clock,
// eventCount). A frame block (type 1) carries a run of one process's
// events:
//
//	rank uvarint | count uvarint | count canonical event encodings
//
// The CRC-32C (Castagnoli, via the stdlib table) covers the payload
// only; the marker makes the stream self-synchronizing: a reader that
// loses its place scans forward for the next marker and validates the
// candidate block by structure, checksum, and a full payload decode
// before trusting a single byte of it. Writers cut a frame every
// FrameEvents events (default 256, well under 1% byte overhead), so a
// corrupt region costs at most the frames it touches, not the file.
//
// Resync mode (ResyncPolicy.Enabled) turns decode failures into
// CorruptionReport incidents instead of errors: the reader skips forward
// to the next fully-valid block, counting skipped bytes against the
// policy's budget. Salvage favors precision over recall —
// a block is accepted only when everything about it validates, so
// resync can drop events but never fabricate them. The file header
// itself is the trust root: corruption before the first block is not
// salvageable.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"tsync/internal/topology"
)

const (
	codecVersion2 = 2

	// Version1 and Version2 name the codec versions for WriterOptions.
	Version1 = codecVersion
	Version2 = codecVersion2

	blockProc     = 0x00 // payload: one process header
	blockFrame    = 0x01 // payload: a run of one process's events
	blockColFrame = 0x02 // payload: a columnar/delta batch of events

	// DefaultFrameEvents is the writer's frame size when
	// WriterOptions.FrameEvents is zero: small enough that one corrupt
	// frame loses little, large enough that the ~13 framing bytes
	// amortize to noise.
	DefaultFrameEvents = 256

	// maxFrameEvents and maxFramePayload bound what a reader buffers
	// for a single block; counts or lengths beyond them are corruption
	// by definition. They also size the resync scan window, so they are
	// kept modest: a frame hits the payload ceiling long before a
	// pathological FrameEvents setting could.
	maxFrameEvents  = 1 << 16
	maxFramePayload = 1 << 18

	markerLen    = 4
	blockHeadMax = markerLen + 1 + binary.MaxVarintLen64 + 4
	maxBlockSize = blockHeadMax + maxFramePayload

	// scanWindow is the resync peek size. Any candidate block starting
	// in the first maxBlockSize bytes of a full window fits entirely
	// inside it, so each scan round definitively accepts or rejects
	// every candidate it considers and can discard maxBlockSize bytes
	// when none survive — bounded progress, no rescanning.
	scanWindow = 2 * maxBlockSize

	// eventMinSize is the smallest canonical event encoding: kind and
	// op bytes, two floats, and seven single-byte varints. Frame counts
	// are sanity-checked against it before any event is decoded.
	eventMinSize = 18 + 7

	// colEventMinSize is the smallest per-event footprint of a columnar
	// frame beyond its fixed prefix: one kind byte, one op byte, one
	// delta byte per timestamp column, one varint byte per field column.
	colEventMinSize = 2 + 2 + 7
	// colFixedSize is a columnar payload's fixed cost after rank and
	// count: the two raw first-value timestamps (their per-event delta
	// bytes are counted in colEventMinSize, so the first event's are
	// subtracted here).
	colFixedSize = 16 - 2

	// colEventMaxSize bounds one event's columnar footprint: two column
	// bytes, two 10-byte timestamp deltas, seven 5-byte field varints.
	colEventMaxSize = 2 + 2*binary.MaxVarintLen64 + 7*binary.MaxVarintLen32
	// maxColFrameEvents keeps a worst-case columnar frame inside
	// maxFramePayload with room for the rank/count prefix.
	maxColFrameEvents = (maxFramePayload - 2*binary.MaxVarintLen64 - 16) / colEventMaxSize
)

// frameMarker opens every v2 block. 0xF4 never appears in ASCII and is
// an invalid UTF-8 start byte, keeping accidental collisions in
// string-bearing payloads rare; real collisions are eliminated by
// validation, not avoidance — a marker found mid-payload fails the
// checksum of whatever follows it.
var frameMarker = [markerLen]byte{0xF4, 'T', 'R', 'F'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSalvageBudget reports that resync skipped more bytes than the policy
// allows.
var ErrSalvageBudget = errors.New("trace: salvage skip budget exceeded")

// ResyncPolicy controls corruption recovery for v2 streams. The zero
// value is strict: any corruption is ErrBadFormat. With Enabled set the
// reader skips to the next valid block instead, within the byte budget
// (zero means unlimited). v1 streams have no redundancy to resynchronize
// on; the policy does not affect them.
type ResyncPolicy struct {
	Enabled      bool
	MaxSkipBytes int64
}

// Incident is one corruption recovery: where the reader lost sync, how
// many bytes it skipped to regain it, and why.
type Incident struct {
	// Offset is the stream position where the reader lost sync.
	Offset int64
	// Rank is the process being read at the time (-1 before the first
	// process header).
	Rank int
	// SkippedBytes counts the bytes discarded before the next valid
	// block (through end of stream for a final incident).
	SkippedBytes int64
	Reason       string
}

// CorruptionReport aggregates every incident of one reader's pass.
type CorruptionReport struct {
	Incidents    []Incident
	SkippedBytes int64
	// LostEvents counts events known to be lost: declared by an intact
	// process header but never delivered. Losses that cannot be counted
	// — a process header destroyed along with its declared count — set
	// UnknownLoss instead.
	LostEvents  int64
	UnknownLoss bool
}

// LossPct returns the pass's countable event loss as a percentage of
// what the stream should have delivered (lost plus the retained count
// the caller observed), and whether the figure is meaningful. With
// UnknownLoss set — a destroyed process header took its declared event
// count with it — or nothing expected, there is no denominator; ok is
// false instead of the NaN/Inf a naive division would emit, and the
// reported LostEvents remain a lower bound only.
func (r *CorruptionReport) LossPct(retained int64) (pct float64, ok bool) {
	total := retained + r.LostEvents
	if r.UnknownLoss || total <= 0 {
		return 0, false
	}
	return 100 * float64(r.LostEvents) / float64(total), true
}

func (r *CorruptionReport) note(off int64, rank int, skipped int64, reason string) {
	r.Incidents = append(r.Incidents, Incident{Offset: off, Rank: rank, SkippedBytes: skipped, Reason: reason})
	r.SkippedBytes += skipped
}

// WriterOptions selects the codec version and frame geometry for
// NewEventWriterOpts. The zero value writes v1, bit-identical to
// NewEventWriter.
type WriterOptions struct {
	Version     int  // Version1 (default) or Version2
	FrameEvents int  // v2 events per frame; 0 = DefaultFrameEvents
	Columnar    bool // v2 only: emit columnar/delta frames (blockColFrame)
}

func (o WriterOptions) normalize() (WriterOptions, error) {
	switch o.Version {
	case 0:
		o.Version = Version1
	case Version1, Version2:
	default:
		return o, fmt.Errorf("trace: unsupported codec version %d", o.Version)
	}
	if o.Columnar && o.Version != Version2 {
		return o, fmt.Errorf("trace: columnar frames need the v2 framing (version %d requested)", o.Version)
	}
	if o.FrameEvents <= 0 {
		o.FrameEvents = DefaultFrameEvents
	}
	if o.FrameEvents > maxFrameEvents {
		o.FrameEvents = maxFrameEvents
	}
	if o.Columnar && o.FrameEvents > maxColFrameEvents {
		o.FrameEvents = maxColFrameEvents
	}
	return o, nil
}

// parsed is the payload-level view of one validated block: a process
// header, or a batch of one rank's events. Nothing past parsePayload
// knows which layout a frame's bytes had.
type parsed struct {
	typ  byte
	rank int

	// frame: the decoded events, in the reader-owned scratch parsePayload
	// was given; they must drain before the next block is parsed
	decoded []Event

	// proc block
	ph ProcHeader
}

// parseBlockHead decodes the fixed block prefix from head, which may be
// shorter than blockHeadMax near end of stream.
func parseBlockHead(head []byte) (typ byte, plen, hlen int, crc uint32, err error) {
	if len(head) < markerLen || !bytes.Equal(head[:markerLen], frameMarker[:]) {
		return 0, 0, 0, 0, errors.New("no block marker") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	if len(head) < markerLen+1 {
		return 0, 0, 0, 0, errors.New("truncated block header") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	typ = head[markerLen]
	if typ != blockProc && typ != blockFrame && typ != blockColFrame {
		return 0, 0, 0, 0, fmt.Errorf("unknown block type %d", typ) //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	v, n := binary.Uvarint(head[markerLen+1:])
	if n <= 0 {
		return 0, 0, 0, 0, errors.New("truncated block header") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	if v == 0 || v > maxFramePayload {
		return 0, 0, 0, 0, fmt.Errorf("block payload length %d out of range", v) //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	hlen = markerLen + 1 + n + 4
	if len(head) < hlen {
		return 0, 0, 0, 0, errors.New("truncated block header") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	crc = binary.LittleEndian.Uint32(head[markerLen+1+n:])
	return typ, int(v), hlen, crc, nil
}

// parsePayload validates a block payload whose checksum already matched
// and decodes it whole. The checksum vouches for the bytes, not for a
// frame's count telling the truth about them, and the count is what a
// HeadScanner index is built from: a frame whose events and count part
// ways is refused here, before any of its events is delivered. Events
// decode into *scratch, grown as needed, which the caller owns and
// recycles block after block.
func parsePayload(typ byte, p []byte, scratch *[]Event) (parsed, error) {
	if typ == blockProc {
		ph, err := parseProcPayload(p)
		return parsed{typ: typ, rank: ph.Rank, ph: ph}, err
	}
	rank, count, n, err := parseFramePrefix(typ, p)
	if err != nil {
		return parsed{}, err
	}
	if cap(*scratch) < count {
		*scratch = make([]Event, count)
	}
	evs := (*scratch)[:count]
	if typ == blockColFrame {
		err = decodeColFrame(p[n:], evs)
	} else {
		err = decodeRowFrame(p[n:], evs)
	}
	return parsed{typ: typ, rank: rank, decoded: evs}, err
}

// decodeRowFrame decodes a row frame's body, which must hold exactly
// len(evs) canonical event encodings.
func decodeRowFrame(body []byte, evs []Event) error {
	if len(evs)*eventMinSize > len(body) {
		return errors.New("frame too short for its event count") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	for i := range evs {
		k, ok := decodeEvent(body, &evs[i])
		if !ok {
			return errors.New("malformed event in frame") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
		}
		body = body[k:]
	}
	if len(body) != 0 {
		return errors.New("trailing bytes after frame events") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	return nil
}

// parseFramePrefix decodes the rank and event count that open both frame
// payload layouts, and reports how many bytes they occupy. It is all a
// HeadScanner reads of a frame.
func parseFramePrefix(typ byte, p []byte) (rank, count, n int, err error) {
	r, n := binary.Uvarint(p)
	if n <= 0 || r > maxProcs {
		return 0, 0, 0, errors.New("bad frame rank") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	limit := uint64(maxFrameEvents)
	if typ == blockColFrame {
		limit = maxColFrameEvents
	}
	c, m := binary.Uvarint(p[n:])
	if m <= 0 || c == 0 || c > limit {
		return 0, 0, 0, errors.New("bad frame event count") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	return int(r), int(c), n + m, nil
}

// parseProcPayload decodes a proc block payload, which must be consumed
// exactly. The field encodings match v1's in-line process header.
func parseProcPayload(p []byte) (ProcHeader, error) {
	var ph ProcHeader
	var ints [4]uint64
	for i := range ints {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return ph, errors.New("bad process header varint") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
		}
		ints[i] = v
		p = p[n:]
	}
	if ints[0] > maxProcs {
		return ph, errors.New("process rank out of range") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	ph.Rank = int(ints[0])
	ph.Core = topology.CoreID{Node: int(ints[1]), Chip: int(ints[2]), Core: int(ints[3])}
	clen, n := binary.Uvarint(p)
	if n <= 0 || clen > maxStringLen || uint64(len(p)-n) < clen {
		return ph, errors.New("bad clock string") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	ph.Clock = string(p[n : n+int(clen)])
	p = p[n+int(clen):]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > maxProcEvents {
		return ph, errors.New("bad event count") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	ph.EventCount = int(count)
	if len(p) != n {
		return ph, errors.New("trailing bytes in process header") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	return ph, nil
}

// Columnar frame payload (blockColFrame):
//
//	rank uvarint | count uvarint |
//	kind  [count]u8 | op [count]u8 |
//	time  f64bits-LE | (count-1) zigzag varint bit-pattern deltas |
//	true  f64bits-LE | (count-1) zigzag varint bit-pattern deltas |
//	7 field columns, count signed varints each
//	(region, instance, partner, tag, bytes, comm, root)
//
// Column-major layout keeps the decode loops branch-light (one tight
// loop per column instead of a nine-field switch per event), and the
// timestamp deltas shrink because consecutive events of one rank have
// nearly equal float bit patterns. The transform is lossless — bits in,
// bits out — so a columnar round-trip is bit-identical to the row
// codec's events.

// appendColFrame appends the columnar encoding of evs (without the
// rank/count prefix) to dst.
func appendColFrame(dst []byte, evs []Event) []byte {
	for i := range evs {
		dst = append(dst, byte(evs[i].Kind))
	}
	for i := range evs {
		dst = append(dst, byte(evs[i].Op))
	}
	prev := math.Float64bits(evs[0].Time)
	dst = binary.LittleEndian.AppendUint64(dst, prev)
	for i := 1; i < len(evs); i++ {
		bits := math.Float64bits(evs[i].Time)
		dst = binary.AppendVarint(dst, int64(bits-prev))
		prev = bits
	}
	prev = math.Float64bits(evs[0].True)
	dst = binary.LittleEndian.AppendUint64(dst, prev)
	for i := 1; i < len(evs); i++ {
		bits := math.Float64bits(evs[i].True)
		dst = binary.AppendVarint(dst, int64(bits-prev))
		prev = bits
	}
	for col := 0; col < colFieldCount; col++ {
		for i := range evs {
			dst = binary.AppendVarint(dst, int64(*colField(&evs[i], col)))
		}
	}
	return dst
}

// colFieldCount is the number of varint field columns.
const colFieldCount = 7

// colField addresses ev's col-th varint field, the columns being in
// canonical (row-codec) order. The switch is on a value that is constant
// across a column's loop, so it predicts perfectly and, unlike a table
// of accessor functions, inlines.
func colField(ev *Event, col int) *int32 {
	switch col {
	case 0:
		return &ev.Region
	case 1:
		return &ev.Instance
	case 2:
		return &ev.Partner
	case 3:
		return &ev.Tag
	case 4:
		return &ev.Bytes
	case 5:
		return &ev.Comm
	default:
		return &ev.Root
	}
}

// decodeColFrame decodes a columnar frame's body, which must hold exactly
// len(evs) events' columns.
func decodeColFrame(body []byte, evs []Event) error {
	c := len(evs)
	if c*colEventMinSize+colFixedSize > len(body) {
		return errors.New("frame too short for its event count") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	for i := range evs {
		evs[i] = Event{Kind: Kind(body[i]), Op: CollOp(body[c+i])}
	}
	body = body[2*c:]
	for col := 0; col < 2; col++ {
		if len(body) < 8 {
			return errors.New("truncated timestamp column") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
		}
		bits := binary.LittleEndian.Uint64(body)
		body = body[8:]
		if col == 0 {
			evs[0].Time = math.Float64frombits(bits)
		} else {
			evs[0].True = math.Float64frombits(bits)
		}
		for i := 1; i < c; i++ {
			d, k := binary.Varint(body)
			if k <= 0 {
				return errors.New("bad timestamp delta") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
			}
			body = body[k:]
			bits += uint64(d)
			if col == 0 {
				evs[i].Time = math.Float64frombits(bits)
			} else {
				evs[i].True = math.Float64frombits(bits)
			}
		}
	}
	for col := 0; col < colFieldCount; col++ {
		for i := 0; i < c; i++ {
			// nearly every field value is a one-byte varint: decode that
			// case in line (it cannot be out of int32 range)
			if len(body) > 0 && body[0] < 0x80 {
				*colField(&evs[i], col) = int32(body[0]>>1) ^ -int32(body[0]&1)
				body = body[1:]
				continue
			}
			v, k := binary.Varint(body)
			if k <= 0 || v > math.MaxInt32 || v < math.MinInt32 {
				return errors.New("bad field column varint") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
			}
			body = body[k:]
			*colField(&evs[i], col) = int32(v)
		}
	}
	if len(body) != 0 {
		return errors.New("trailing bytes after columnar frame") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	return nil
}

// blockReader reads v2 blocks from a buffered stream, optionally
// resynchronizing past corruption. It is shared by EventReader (whole
// file) and FrameDecoder (one rank's section); the accept hook carries
// each caller's rank-ordering rules, so both passes make identical
// skip-or-accept decisions over identical bytes — the property that
// keeps the index pass and the cursor pass of internal/stream agreeing
// on what was salvaged.
type blockReader struct {
	br     *bufio.Reader
	pos    func() int64                  // stream position of the next unconsumed byte
	rank   func() int                    // rank to attribute incidents to
	accept func(typ byte, rank int) bool // semantic validity beyond the payload itself
	pol    ResyncPolicy
	rep    *CorruptionReport

	payload []byte  // strict reads: storage for the block being checked
	scratch []Event // the current frame's decoded events, recycled per block
}

func (b *blockReader) budgetBytes() error {
	if b.pol.MaxSkipBytes > 0 && b.rep.SkippedBytes > b.pol.MaxSkipBytes {
		return fmt.Errorf("%w: skipped %d bytes (limit %d)", ErrSalvageBudget, b.rep.SkippedBytes, b.pol.MaxSkipBytes)
	}
	return nil
}

// check is the one place a block earns trust: its payload must match the
// checksum, decode completely and consistently, and pass the caller's
// accept rule. Strict reads, resync reads and the scan's candidates all
// come through here, so no reader can fabricate an event another would
// have refused. The error is the bare reason; the caller adds the block's
// position, on the failure path only.
func (b *blockReader) check(typ byte, payload []byte, crc uint32) (parsed, error) {
	if crc32.Checksum(payload, castagnoli) != crc {
		return parsed{}, errors.New("checksum mismatch") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	p, err := parsePayload(typ, payload, &b.scratch)
	if err != nil {
		return parsed{}, err
	}
	if !b.accept(p.typ, p.rank) {
		return parsed{}, errors.New("block out of rank order") //tsync:rawerr — reason for the caller, which classifies and adds the byte offset (see readBlock/scan)
	}
	return p, nil
}

// blockErr is a block's failure: the reason, classified, at the block's
// start byte.
func blockErr(start int64, reason error) error {
	return badFormat(fmt.Sprintf("block at byte %d", start), reason)
}

// nextBlock returns the next accepted block and its start offset, io.EOF
// at a clean end of stream, or — in strict mode — ErrBadFormat at the
// first deviation. In resync mode deviations become incidents and the
// scan finds the next block that validates completely.
func (b *blockReader) nextBlock() (parsed, int64, error) {
	start := b.pos()
	p, err := b.readBlock(start)
	if err == nil || err == io.EOF || !b.pol.Enabled {
		return p, start, err
	}
	return b.scan(start, err)
}

// readBlock attempts a block at the current position. The resync path
// consumes nothing unless the whole block validates, so a failure leaves
// every byte in place for the scan; the strict path reads the payload
// into its own storage (the buffer may be smaller than a block) and
// fails hard.
func (b *blockReader) readBlock(start int64) (parsed, error) {
	head, herr := b.br.Peek(blockHeadMax)
	if len(head) == 0 {
		if herr == nil || herr == io.EOF {
			return parsed{}, io.EOF
		}
		return parsed{}, herr
	}
	typ, plen, hlen, crc, err := parseBlockHead(head)
	if err != nil {
		return parsed{}, blockErr(start, err)
	}
	if b.pol.Enabled {
		full, _ := b.br.Peek(hlen + plen)
		if len(full) < hlen+plen {
			return parsed{}, blockErr(start, errors.New("truncated block"))
		}
		p, err := b.check(typ, full[hlen:], crc)
		if err != nil {
			return parsed{}, blockErr(start, err)
		}
		_, err = b.br.Discard(hlen + plen)
		return p, err
	}
	if _, err := b.br.Discard(hlen); err != nil {
		return parsed{}, blockErr(start, err)
	}
	if cap(b.payload) < plen {
		b.payload = make([]byte, plen)
	}
	b.payload = b.payload[:plen]
	if _, err := io.ReadFull(b.br, b.payload); err != nil {
		return parsed{}, badFormat(fmt.Sprintf("block payload at byte %d", start), err)
	}
	p, err := b.check(typ, b.payload, crc)
	if err != nil {
		return parsed{}, blockErr(start, err)
	}
	return p, nil
}

// scan recovers from cause: it searches forward for the next block whose
// structure, checksum, full payload decode, and accept hook all pass,
// recording the skipped span as one incident. Candidates are only
// considered at offsets where the whole block provably fits in the
// window, and every rejected full window discards maxBlockSize bytes, so
// the scan always terminates after work linear in the stream length.
func (b *blockReader) scan(start int64, cause error) (parsed, int64, error) {
	rank := b.rank()
	reason := cause.Error()
	var skipped int64
	for {
		win, _ := b.br.Peek(scanWindow)
		full := len(win) == scanWindow
		searchEnd := maxBlockSize
		if !full {
			searchEnd = len(win)
		}
		from := 0
		if skipped == 0 {
			from = 1 // the failed position itself is corrupt
		}
		for from < searchEnd {
			rel := bytes.Index(win[from:searchEnd], frameMarker[:])
			if rel < 0 {
				break
			}
			i := from + rel
			p, size, ok := b.candidate(win[i:])
			if !ok {
				from = i + 1
				continue
			}
			skipped += int64(i)
			b.rep.note(start, rank, skipped, reason)
			if err := b.budgetBytes(); err != nil {
				return parsed{}, start, err
			}
			if _, err := b.br.Discard(i); err != nil {
				return parsed{}, start, err
			}
			blockStart := b.pos()
			_, err := b.br.Discard(size)
			return p, blockStart, err
		}
		if !full {
			// End of stream with nothing salvageable left.
			skipped += int64(len(win))
			if _, err := b.br.Discard(len(win)); err != nil {
				return parsed{}, start, err
			}
			b.rep.note(start, rank, skipped, reason)
			if err := b.budgetBytes(); err != nil {
				return parsed{}, start, err
			}
			return parsed{}, start, io.EOF
		}
		skipped += int64(searchEnd)
		if _, err := b.br.Discard(searchEnd); err != nil {
			return parsed{}, start, err
		}
		if b.pol.MaxSkipBytes > 0 && b.rep.SkippedBytes+skipped > b.pol.MaxSkipBytes {
			b.rep.note(start, rank, skipped, reason)
			return parsed{}, start, fmt.Errorf("%w: skipped %d bytes (limit %d)", ErrSalvageBudget, b.rep.SkippedBytes, b.pol.MaxSkipBytes)
		}
	}
}

// candidate checks the block that would start at the front of buf,
// consuming nothing, and reports its size. ok requires the entire block
// to lie within buf.
func (b *blockReader) candidate(buf []byte) (p parsed, size int, ok bool) {
	typ, plen, hlen, crc, err := parseBlockHead(buf[:min(len(buf), blockHeadMax)])
	if err != nil || hlen+plen > len(buf) {
		return parsed{}, 0, false
	}
	p, err = b.check(typ, buf[hlen:hlen+plen], crc)
	return p, hlen + plen, err == nil
}

// drain hands out a frame's decoded events. They live in the
// blockReader's scratch, so a drain must empty before the next block is
// read.
type drain struct {
	evs []Event
	pos int
}

// next pops the frame's next event into ev; false means the frame is
// spent.
func (d *drain) next(ev *Event) bool {
	if d.pos == len(d.evs) {
		return false
	}
	*ev = d.evs[d.pos]
	d.pos++
	return true
}

// take pops as many of the frame's events as dst holds.
func (d *drain) take(dst []Event) int {
	n := copy(dst, d.evs[d.pos:])
	d.pos += n
	return n
}

// headScanLen is what HeadScanner reads of a block: the longest block
// head plus the longest rank/count prefix of a frame payload.
const headScanLen = blockHeadMax + 2*binary.MaxVarintLen64

// ScannedBlock is one block as HeadScanner sees it. A proc block was
// read whole and checksummed. Of a frame only Rank and Count were read,
// from bytes no checksum has vouched for yet: they hold once a
// FrameDecoder has read the frame, which verifies the CRC over the same
// bytes.
type ScannedBlock struct {
	Start, End int64 // the block's byte range in the stream
	Frame      bool
	Rank       int        // frame: the rank its events belong to
	Count      int        // frame: how many events it declares
	Proc       ProcHeader // proc block: the process header
}

// HeadScanner walks a strict v2 stream from block head to block head
// without touching frame payloads: one bounded ReadAt per block, plus one
// for a proc block's (few dozen byte) payload. It has no resync mode —
// finding the next block after damage needs the payload checks only a
// blockReader makes.
type HeadScanner struct {
	r       io.ReaderAt
	off     int64
	buf     [headScanLen]byte
	payload []byte
}

// NewHeadScanner scans the blocks of r starting at byte off, which must
// be a block boundary (EventReader.Offset after the file header).
func NewHeadScanner(r io.ReaderAt, off int64) *HeadScanner {
	return &HeadScanner{r: r, off: off}
}

// Next returns the block at the scanner's position and moves past it:
// io.EOF at a clean end of stream, ErrBadFormat naming the block's byte
// offset when the head (or a proc block) does not validate. A frame
// whose payload the stream cuts short still scans; its decoder reports
// the truncation.
func (s *HeadScanner) Next() (ScannedBlock, error) {
	start := s.off
	n, err := s.r.ReadAt(s.buf[:], start)
	if n == 0 {
		if err == nil {
			err = io.EOF
		}
		return ScannedBlock{}, err
	}
	typ, plen, hlen, crc, err := parseBlockHead(s.buf[:min(n, blockHeadMax)])
	if err != nil {
		return ScannedBlock{}, blockErr(start, err)
	}
	b := ScannedBlock{Start: start, End: start + int64(hlen+plen), Frame: typ != blockProc}
	if b.Frame {
		b.Rank, b.Count, _, err = parseFramePrefix(typ, s.buf[hlen:min(n, hlen+plen)])
	} else {
		if cap(s.payload) < plen {
			s.payload = make([]byte, plen)
		}
		p := s.payload[:plen]
		if m, rerr := s.r.ReadAt(p, start+int64(hlen)); m < plen {
			return ScannedBlock{}, badFormat(fmt.Sprintf("block payload at byte %d", start), rerr)
		}
		if crc32.Checksum(p, castagnoli) != crc {
			return ScannedBlock{}, blockErr(start, errors.New("checksum mismatch"))
		}
		b.Proc, err = parseProcPayload(p)
	}
	if err != nil {
		return ScannedBlock{}, blockErr(start, err)
	}
	s.off = b.End
	return b, nil
}

// frameWriter is the v2 encoding layer under EventWriter: it batches
// events into frames and emits checksummed blocks. All encoding goes
// through writer-owned buffers, so the per-event hot path allocates
// nothing once the buffers reach steady state.
type frameWriter struct {
	bw       *bufio.Writer
	limit    int  // events per frame
	columnar bool // emit blockColFrame instead of blockFrame

	rank   int
	events []byte // pending frame's encoded events (row mode)
	count  int

	evBuf []Event // pending frame's events (columnar mode buffers
	// structs: the column transform needs the whole batch)

	blockHead []byte // scratch: marker | type | len | crc
	payHead   []byte // scratch: frame/proc payload prefix
	colPay    []byte // scratch: columnar payload body
}

func newFrameWriter(bw *bufio.Writer, frameEvents int, columnar bool) *frameWriter {
	fw := &frameWriter{
		bw:        bw,
		limit:     frameEvents,
		columnar:  columnar,
		blockHead: make([]byte, 0, blockHeadMax),
		payHead:   make([]byte, 0, 64),
	}
	if columnar {
		fw.evBuf = make([]Event, 0, frameEvents)
	} else {
		fw.events = make([]byte, 0, min(frameEvents, 1024)*32)
	}
	return fw
}

// writeBlock emits one block whose payload is the concatenation of
// parts.
func (fw *frameWriter) writeBlock(typ byte, parts ...[]byte) error {
	total := 0
	var crc uint32
	for _, p := range parts {
		total += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	if total > maxFramePayload {
		return fmt.Errorf("trace: block payload of %d bytes exceeds the format limit", total)
	}
	head := fw.blockHead[:0]
	head = append(head, frameMarker[:]...)
	head = append(head, typ)
	head = binary.AppendUvarint(head, uint64(total))
	head = binary.LittleEndian.AppendUint32(head, crc)
	fw.blockHead = head
	if _, err := fw.bw.Write(head); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := fw.bw.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// flushFrame emits the pending frame, if any.
func (fw *frameWriter) flushFrame() error {
	if fw.columnar {
		if len(fw.evBuf) == 0 {
			return nil
		}
		head := fw.payHead[:0]
		head = binary.AppendUvarint(head, uint64(fw.rank))
		head = binary.AppendUvarint(head, uint64(len(fw.evBuf)))
		fw.payHead = head
		fw.colPay = appendColFrame(fw.colPay[:0], fw.evBuf)
		err := fw.writeBlock(blockColFrame, head, fw.colPay)
		fw.evBuf = fw.evBuf[:0]
		return err
	}
	if fw.count == 0 {
		return nil
	}
	head := fw.payHead[:0]
	head = binary.AppendUvarint(head, uint64(fw.rank))
	head = binary.AppendUvarint(head, uint64(fw.count))
	fw.payHead = head
	err := fw.writeBlock(blockFrame, head, fw.events)
	fw.events = fw.events[:0]
	fw.count = 0
	return err
}

// add appends one event to the pending frame, cutting the frame at the
// event limit or near the payload ceiling. In columnar mode the limit
// alone bounds the payload: normalize clamps it to maxColFrameEvents,
// whose worst-case encoding fits maxFramePayload by construction.
func (fw *frameWriter) add(ev *Event) error {
	if fw.columnar {
		fw.evBuf = append(fw.evBuf, *ev)
		if len(fw.evBuf) >= fw.limit {
			return fw.flushFrame()
		}
		return nil
	}
	fw.events = appendEvent(fw.events, ev)
	fw.count++
	if fw.count >= fw.limit || len(fw.events) >= maxFramePayload-maxEventSize-2*binary.MaxVarintLen64 {
		return fw.flushFrame()
	}
	return nil
}

// beginProc flushes the previous process's tail frame and emits a proc
// block.
func (fw *frameWriter) beginProc(ph ProcHeader) error {
	if err := fw.flushFrame(); err != nil {
		return err
	}
	fw.rank = ph.Rank
	p := fw.payHead[:0]
	p = binary.AppendUvarint(p, uint64(ph.Rank))
	p = binary.AppendUvarint(p, uint64(ph.Core.Node))
	p = binary.AppendUvarint(p, uint64(ph.Core.Chip))
	p = binary.AppendUvarint(p, uint64(ph.Core.Core))
	p = binary.AppendUvarint(p, uint64(len(ph.Clock)))
	p = append(p, ph.Clock...)
	p = binary.AppendUvarint(p, uint64(ph.EventCount))
	fw.payHead = p
	return fw.writeBlock(blockProc, p)
}

// FrameDecoder reads the events of one process's v2 section — the byte
// range internal/stream's index pass attributed to a single rank. It is
// the v2 counterpart of EventDecoder: io.EOF at a clean section end,
// ErrBadFormat (strict) or incident-and-continue (resync) on corruption.
// The accept rule — frame blocks of exactly this rank — matches what the
// index pass accepted inside the section, so both passes skip the same
// bytes and deliver the same events.
type FrameDecoder struct {
	cr  countingReader
	blk blockReader
	rep CorruptionReport
	cur drain // the current frame's undelivered events
}

// NewFrameDecoder returns a decoder over r for the given rank's section.
// base is the stream offset of r's first byte, so that errors and
// incidents name positions in the file and not in the section.
func NewFrameDecoder(r io.Reader, base int64, rank int, pol ResyncPolicy) *FrameDecoder {
	d := &FrameDecoder{}
	d.cr = countingReader{r: r, n: base}
	size := decoderBufSize
	if pol.Enabled {
		size = scanWindow
	}
	br := bufio.NewReaderSize(&d.cr, size)
	d.blk = blockReader{
		br:     br,
		pos:    func() int64 { return d.cr.n - int64(br.Buffered()) },
		rank:   func() int { return rank },
		accept: func(typ byte, of int) bool { return typ != blockProc && of == rank },
		pol:    pol,
		rep:    &d.rep,
	}
	return d
}

// Report exposes the corruption incidents seen so far. The pointer stays
// valid and updates as decoding proceeds.
func (d *FrameDecoder) Report() *CorruptionReport { return &d.rep }

// refill reads the section's next frame into the (spent) drain.
func (d *FrameDecoder) refill() error {
	p, _, err := d.blk.nextBlock()
	d.cur = drain{evs: p.decoded}
	return err
}

// Decode reads the next event into ev.
func (d *FrameDecoder) Decode(ev *Event) error {
	for !d.cur.next(ev) {
		if err := d.refill(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBatch decodes up to len(evs) events, returning how many were
// filled; a clean section end surfaces as (n, io.EOF).
func (d *FrameDecoder) DecodeBatch(evs []Event) (int, error) {
	i := 0
	for i < len(evs) {
		if n := d.cur.take(evs[i:]); n > 0 {
			i += n
			continue
		}
		if err := d.refill(); err != nil {
			return i, err
		}
	}
	return i, nil
}
