package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"give2get/internal/sim"
)

// The .g2gt binary trace format is a compact, sorted, columnar encoding of
// a contact trace, designed so readers can stream it with O(block) memory
// and skip whole blocks by their time bounds:
//
//	file   = header block* terminator footer
//	header = "G2GT" | version u8 | flags u8 | nodes uvarint
//	         | nameLen uvarint | name bytes
//	block  = count uvarint (> 0)
//	         | minStart uvarint  (ns; == first contact's Start)
//	         | maxEnd uvarint    (ns; == max End within the block)
//	         | payloadLen uvarint
//	         | payload
//	payload columns, each count entries long, in order:
//	         startDelta uvarint  (ns from previous Start; first is 0)
//	         duration   uvarint  (ns, End-Start)
//	         a          uvarint  (lower node id)
//	         bMinusA    uvarint  (>= 1, so A < B is structural)
//	terminator = uvarint 0
//	footer = totalContacts u64le | maxEnd u64le (ns) | "G2GE"
//
// Contacts are stored in the canonical (Start, End, A, B) order New sorts
// into, so start deltas are non-negative and a reader can feed the engine's
// contact cursor directly. The per-block [minStart, maxEnd] bounds and the
// self-delimiting payloadLen let a reader skip blocks outside a time window
// without decoding them. The fixed-size footer lets OpenBinary report Len and
// Span without scanning the file.

const (
	binaryMagic   = "G2GT"
	binaryTrailer = "G2GE"
	binaryVersion = 1

	// BinaryExt is the conventional file extension of the binary format.
	BinaryExt = ".g2gt"

	// DefaultBlockContacts is the writer's contacts-per-block default:
	// large enough to amortize block headers, small enough that a decoded
	// block stays cache- and allocation-friendly.
	DefaultBlockContacts = 4096

	// maxBlockContacts bounds a block a reader will decode; a count above
	// it means corruption (writers never exceed DefaultBlockContacts).
	maxBlockContacts = 1 << 20
	// maxNameLen bounds the header's name field.
	maxNameLen = 1 << 16
	// footerSize is the fixed byte length of the footer after the
	// terminator: two u64 plus the trailer magic.
	footerSize = 8 + 8 + 4
)

// ErrBadMagic marks a reader pointed at something that is not a binary
// trace file.
var ErrBadMagic = errors.New("trace: not a binary trace (bad magic)")

// BinaryWriter streams a sorted contact stream into the binary format.
// Contacts must be Added in canonical order; the writer validates each one
// and fails fast on disorder, so a successfully Closed file is always
// loadable. Close finalizes the stream (last block, terminator, footer)
// but does not close the underlying writer.
type BinaryWriter struct {
	w         *bufio.Writer
	nodes     int
	blockSize int
	block     []Contact
	prev      Contact
	havePrev  bool
	total     uint64
	maxEnd    sim.Time
	scratch   []byte
	closed    bool
}

// NewBinaryWriter writes the header and returns a writer ready for Add.
func NewBinaryWriter(w io.Writer, name string, nodes int) (*BinaryWriter, error) {
	if nodes <= 0 {
		return nil, ErrNoNodes
	}
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: binary name longer than %d bytes", maxNameLen)
	}
	bw := &BinaryWriter{
		w:         bufio.NewWriterSize(w, 1<<16),
		nodes:     nodes,
		blockSize: DefaultBlockContacts,
	}
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	if err := bw.w.WriteByte(binaryVersion); err != nil {
		return nil, err
	}
	if err := bw.w.WriteByte(0); err != nil { // flags, reserved
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(nodes))])
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(name)))])
	if _, err := bw.w.WriteString(name); err != nil {
		return nil, err
	}
	return bw, nil
}

// Add appends one contact. Endpoints are normalized (A < B); the contact
// must validate against the node count and must not sort before the
// previous one.
func (bw *BinaryWriter) Add(c Contact) error {
	if bw.closed {
		return errors.New("trace: binary writer already closed")
	}
	c = c.Normalize()
	if err := c.Validate(bw.nodes); err != nil {
		return err
	}
	if bw.havePrev && CompareContacts(c, bw.prev) < 0 {
		return fmt.Errorf("trace: binary writer: contact (%d,%d)@%v out of order", c.A, c.B, c.Start)
	}
	bw.prev, bw.havePrev = c, true
	bw.block = append(bw.block, c)
	bw.total++
	if c.End > bw.maxEnd {
		bw.maxEnd = c.End
	}
	if len(bw.block) >= bw.blockSize {
		return bw.flushBlock()
	}
	return nil
}

func (bw *BinaryWriter) flushBlock() error {
	if len(bw.block) == 0 {
		return nil
	}
	minStart := bw.block[0].Start
	var blockMaxEnd sim.Time
	for _, c := range bw.block {
		if c.End > blockMaxEnd {
			blockMaxEnd = c.End
		}
	}
	buf := bw.scratch[:0]
	prevStart := minStart
	for _, c := range bw.block {
		buf = binary.AppendUvarint(buf, uint64(c.Start-prevStart))
		prevStart = c.Start
	}
	for _, c := range bw.block {
		buf = binary.AppendUvarint(buf, uint64(c.End-c.Start))
	}
	for _, c := range bw.block {
		buf = binary.AppendUvarint(buf, uint64(c.A))
	}
	for _, c := range bw.block {
		buf = binary.AppendUvarint(buf, uint64(c.B-c.A))
	}
	bw.scratch = buf

	var tmp [binary.MaxVarintLen64]byte
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(bw.block)))])
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(minStart))])
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(blockMaxEnd))])
	bw.w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(buf)))])
	if _, err := bw.w.Write(buf); err != nil {
		return err
	}
	bw.block = bw.block[:0]
	return nil
}

// Len returns how many contacts have been added so far.
func (bw *BinaryWriter) Len() int { return int(bw.total) }

// Close flushes the final block and writes the terminator and footer. The
// underlying writer is flushed but not closed.
func (bw *BinaryWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	if err := bw.flushBlock(); err != nil {
		return err
	}
	if err := bw.w.WriteByte(0); err != nil { // terminator: count = 0
		return err
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], bw.total)
	if _, err := bw.w.Write(tmp[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(bw.maxEnd))
	if _, err := bw.w.Write(tmp[:]); err != nil {
		return err
	}
	if _, err := bw.w.WriteString(binaryTrailer); err != nil {
		return err
	}
	return bw.w.Flush()
}

// WriteBinary serializes a source into the binary format by pumping one
// cursor pass through a BinaryWriter: O(block) memory regardless of trace
// size.
func WriteBinary(w io.Writer, src Source) error {
	bw, err := NewBinaryWriter(w, src.Name(), src.Nodes())
	if err != nil {
		return err
	}
	cur, err := src.Cursor()
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		if err := bw.Add(c); err != nil {
			return err
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	return bw.Close()
}

// binaryHeader is the decoded fixed header of a binary trace.
type binaryHeader struct {
	nodes int
	name  string
}

func readBinaryHeader(r *bufio.Reader) (binaryHeader, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return binaryHeader{}, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic[:]) != binaryMagic {
		return binaryHeader{}, ErrBadMagic
	}
	version, err := r.ReadByte()
	if err != nil {
		return binaryHeader{}, err
	}
	if version != binaryVersion {
		return binaryHeader{}, fmt.Errorf("trace: unsupported binary version %d", version)
	}
	if _, err := r.ReadByte(); err != nil { // flags
		return binaryHeader{}, err
	}
	nodes, err := binary.ReadUvarint(r)
	if err != nil {
		return binaryHeader{}, fmt.Errorf("trace: binary header nodes: %w", err)
	}
	if nodes == 0 || nodes > math.MaxInt32 {
		return binaryHeader{}, fmt.Errorf("trace: binary header node count %d out of range", nodes)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return binaryHeader{}, fmt.Errorf("trace: binary header name length: %w", err)
	}
	if nameLen > maxNameLen {
		return binaryHeader{}, fmt.Errorf("trace: binary name longer than %d bytes", maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return binaryHeader{}, fmt.Errorf("trace: binary header name: %w", err)
	}
	return binaryHeader{nodes: int(nodes), name: string(name)}, nil
}

// binaryCursor streams contacts out of a binary trace, one decoded block
// at a time, validating structure, ordering, and the footer as it goes.
type binaryCursor struct {
	r       *bufio.Reader
	closer  io.Closer
	nodes   int
	block   []Contact
	pos     int
	payload []byte
	prev    Contact
	seen    bool
	total   uint64
	maxEnd  sim.Time
	done    bool
	err     error
}

// newBinaryCursor reads the header and returns a cursor over r. closer,
// when non-nil, is closed by Close (the file behind the reader).
func newBinaryCursor(r *bufio.Reader, closer io.Closer) (*binaryCursor, binaryHeader, error) {
	hdr, err := readBinaryHeader(r)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, binaryHeader{}, err
	}
	return &binaryCursor{r: r, closer: closer, nodes: hdr.nodes}, hdr, nil
}

func (c *binaryCursor) Next() (Contact, bool) {
	if c.err != nil || c.done {
		return Contact{}, false
	}
	for c.pos >= len(c.block) {
		if !c.readBlock() {
			return Contact{}, false
		}
	}
	v := c.block[c.pos]
	c.pos++
	return v, true
}

func (c *binaryCursor) fail(format string, args ...any) bool {
	c.err = fmt.Errorf("trace: binary: "+format, args...)
	return false
}

// readBlock decodes the next block into c.block, or consumes the
// terminator and footer and reports end of stream.
func (c *binaryCursor) readBlock() bool {
	count, err := binary.ReadUvarint(c.r)
	if err != nil {
		return c.fail("block count: %v", err)
	}
	if count == 0 {
		return c.readFooter()
	}
	if count > maxBlockContacts {
		return c.fail("block count %d exceeds limit %d", count, maxBlockContacts)
	}
	minStartU, err := binary.ReadUvarint(c.r)
	if err != nil {
		return c.fail("block minStart: %v", err)
	}
	maxEndU, err := binary.ReadUvarint(c.r)
	if err != nil {
		return c.fail("block maxEnd: %v", err)
	}
	if minStartU > math.MaxInt64 || maxEndU > math.MaxInt64 {
		return c.fail("block time bound overflows")
	}
	minStart, blockMaxEnd := sim.Time(minStartU), sim.Time(maxEndU)
	payloadLen, err := binary.ReadUvarint(c.r)
	if err != nil {
		return c.fail("block payload length: %v", err)
	}
	// Each contact contributes 4 varints of at most MaxVarintLen64 bytes
	// and at least 1 byte each.
	if payloadLen < 4*count || payloadLen > 4*count*binary.MaxVarintLen64 {
		return c.fail("block payload length %d implausible for %d contacts", payloadLen, count)
	}
	if cap(c.payload) < int(payloadLen) {
		c.payload = make([]byte, payloadLen)
	}
	c.payload = c.payload[:payloadLen]
	if _, err := io.ReadFull(c.r, c.payload); err != nil {
		return c.fail("block payload: %v", err)
	}

	if cap(c.block) < int(count) {
		c.block = make([]Contact, count)
	}
	c.block = c.block[:count]
	p := c.payload
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	prevStart := minStart
	for i := range c.block {
		d, ok := next()
		if !ok {
			return c.fail("truncated start column")
		}
		if d > uint64(math.MaxInt64-prevStart) {
			return c.fail("start delta overflows")
		}
		c.block[i].Start = prevStart + sim.Time(d)
		prevStart = c.block[i].Start
	}
	var observedMaxEnd sim.Time
	for i := range c.block {
		d, ok := next()
		if !ok {
			return c.fail("truncated duration column")
		}
		if d > uint64(math.MaxInt64-c.block[i].Start) {
			return c.fail("duration overflows")
		}
		c.block[i].End = c.block[i].Start + sim.Time(d)
		if c.block[i].End > observedMaxEnd {
			observedMaxEnd = c.block[i].End
		}
	}
	for i := range c.block {
		a, ok := next()
		if !ok {
			return c.fail("truncated node-a column")
		}
		if a > math.MaxInt32 {
			return c.fail("node id %d out of range", a)
		}
		c.block[i].A = NodeID(a)
	}
	for i := range c.block {
		d, ok := next()
		if !ok {
			return c.fail("truncated node-b column")
		}
		if d == 0 {
			return c.fail("self-contact encoded (b == a)")
		}
		b := uint64(c.block[i].A) + d
		if b > math.MaxInt32 {
			return c.fail("node id %d out of range", b)
		}
		c.block[i].B = NodeID(b)
	}
	if len(p) != 0 {
		return c.fail("block payload has %d trailing bytes", len(p))
	}
	if c.block[0].Start != minStart {
		return c.fail("block minStart %v does not match first start %v", minStart, c.block[0].Start)
	}
	if observedMaxEnd != blockMaxEnd {
		return c.fail("block maxEnd %v does not match contacts (%v)", blockMaxEnd, observedMaxEnd)
	}
	for i := range c.block {
		if err := c.block[i].Validate(c.nodes); err != nil {
			return c.fail("contact %d: %v", c.total+uint64(i), err)
		}
		if c.seen || i > 0 {
			if CompareContacts(c.block[i], c.prev) < 0 {
				return c.fail("contact %d out of order", c.total+uint64(i))
			}
		}
		c.prev, c.seen = c.block[i], true
	}
	c.total += count
	if observedMaxEnd > c.maxEnd {
		c.maxEnd = observedMaxEnd
	}
	c.pos = 0
	return true
}

func (c *binaryCursor) readFooter() bool {
	var buf [footerSize]byte
	if _, err := io.ReadFull(c.r, buf[:]); err != nil {
		return c.fail("footer: %v", err)
	}
	total := binary.LittleEndian.Uint64(buf[0:8])
	maxEnd := binary.LittleEndian.Uint64(buf[8:16])
	if string(buf[16:20]) != binaryTrailer {
		return c.fail("footer trailer mismatch")
	}
	if total != c.total {
		return c.fail("footer count %d does not match %d streamed contacts", total, c.total)
	}
	if maxEnd > math.MaxInt64 || sim.Time(maxEnd) != c.maxEnd {
		return c.fail("footer maxEnd does not match stream")
	}
	if _, err := c.r.ReadByte(); err != io.EOF {
		return c.fail("trailing data after footer")
	}
	c.done = true
	return false
}

func (c *binaryCursor) Err() error { return c.err }

func (c *binaryCursor) Close() error {
	if c.closer == nil {
		return nil
	}
	cl := c.closer
	c.closer = nil
	return cl.Close()
}

// BinarySource is a lazy handle on a binary trace file: opening it reads
// only the header, the first block's time bound, and the fixed footer, so
// Name, Nodes, Len, and Span are O(1) no matter how large the trace is.
// Each Cursor call opens its own file handle, so concurrent runs can
// stream the same source independently.
type BinarySource struct {
	path  string
	name  string
	nodes int
	count uint64
	first sim.Time
	last  sim.Time
}

// OpenBinary opens path as a binary trace source.
func OpenBinary(path string) (*BinarySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr, err := readBinaryHeader(br)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	src := &BinarySource{path: path, name: hdr.name, nodes: hdr.nodes}

	// First block's minStart is the trace's first contact start (blocks are
	// in canonical order and minStart is validated against the first
	// contact on read).
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: first block: %w", path, err)
	}
	if count > 0 {
		first, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: open %s: first block start: %w", path, err)
		}
		if first > math.MaxInt64 {
			return nil, fmt.Errorf("trace: open %s: first start overflows", path)
		}
		src.first = sim.Time(first)
	}

	// The fixed-size footer carries the totals.
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < footerSize {
		return nil, fmt.Errorf("trace: open %s: truncated (no footer)", path)
	}
	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], st.Size()-footerSize); err != nil {
		return nil, fmt.Errorf("trace: open %s: footer: %w", path, err)
	}
	if string(foot[16:20]) != binaryTrailer {
		return nil, fmt.Errorf("trace: open %s: footer trailer mismatch", path)
	}
	total := binary.LittleEndian.Uint64(foot[0:8])
	maxEnd := binary.LittleEndian.Uint64(foot[8:16])
	if maxEnd > math.MaxInt64 {
		return nil, fmt.Errorf("trace: open %s: footer maxEnd overflows", path)
	}
	if total > 0 && count == 0 {
		return nil, fmt.Errorf("trace: open %s: footer count %d but empty first block", path, total)
	}
	src.count = total
	src.last = sim.Time(maxEnd)
	return src, nil
}

// Name returns the label stored in the file header.
func (s *BinarySource) Name() string { return s.name }

// Nodes returns the population stored in the file header.
func (s *BinarySource) Nodes() int { return s.nodes }

// Len returns the contact count from the footer, without scanning.
func (s *BinarySource) Len() int { return int(s.count) }

// Span returns (first contact start, last contact end) from the first
// block header and the footer, without scanning.
func (s *BinarySource) Span() (first, last sim.Time) { return s.first, s.last }

// Cursor opens an independent streaming pass over the file.
func (s *BinarySource) Cursor() (Cursor, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	cur, hdr, err := newBinaryCursor(bufio.NewReaderSize(f, 1<<16), f)
	if err != nil {
		return nil, err
	}
	if hdr.nodes != s.nodes || hdr.name != s.name {
		cur.Close()
		return nil, fmt.Errorf("trace: %s changed since open", s.path)
	}
	return cur, nil
}
