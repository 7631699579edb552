package trace

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"give2get/internal/sim"
)

// ExtWriter builds a sorted binary trace file from contacts arriving in
// ANY order, in O(run) memory: the external-merge counterpart of New for
// traces too large to materialize. Contacts accumulate in a bounded
// buffer; each full buffer is sorted and spilled to a temporary run file;
// Close k-way-merges the runs through a BinaryWriter into the final file.
// A generator can therefore emit a million-node trace pair by pair while
// peak memory stays at one run buffer plus one decoded contact per run.
type ExtWriter struct {
	path     string
	name     string
	opts     ExtOptions
	buf      []Contact
	runs     []string
	maxNode  NodeID
	minNodes int
	closed   bool
}

// ExtOptions tune the external sort.
type ExtOptions struct {
	// RunContacts is the in-memory buffer size in contacts; each full
	// buffer becomes one sorted run on disk. Zero means 1<<20 (~32 MiB).
	RunContacts int
	// TmpDir hosts the run files; empty means the final file's directory
	// (same filesystem, so merge I/O never crosses devices).
	TmpDir string
}

// NewExtWriter prepares an external-merge writer targeting path. The node
// count of the final header is max(minNodes, highest id seen + 1); pass
// the known population as minNodes, or 0 to infer it from the contacts.
func NewExtWriter(path, name string, minNodes int, opts ExtOptions) *ExtWriter {
	if opts.RunContacts <= 0 {
		opts.RunContacts = 1 << 20
	}
	return &ExtWriter{path: path, name: name, minNodes: minNodes, opts: opts}
}

// Add buffers one contact, spilling a sorted run when the buffer fills.
// Endpoints are normalized; structural validity (beyond the final node
// bound, which is only known at Close) is checked immediately so errors
// surface near their origin.
func (w *ExtWriter) Add(c Contact) error {
	if w.closed {
		return errors.New("trace: ext writer already closed")
	}
	c = c.Normalize()
	if err := c.Validate(math.MaxInt32); err != nil {
		return err
	}
	if c.B > w.maxNode {
		w.maxNode = c.B
	}
	w.buf = append(w.buf, c)
	if len(w.buf) >= w.opts.RunContacts {
		return w.spill()
	}
	return nil
}

// spill sorts the buffer and writes it as one delta-encoded run file.
func (w *ExtWriter) spill() error {
	if len(w.buf) == 0 {
		return nil
	}
	sort.Slice(w.buf, func(i, j int) bool {
		return CompareContacts(w.buf[i], w.buf[j]) < 0
	})
	dir := w.opts.TmpDir
	if dir == "" {
		dir = filepath.Dir(w.path)
	}
	f, err := os.CreateTemp(dir, "g2gt-run-*")
	if err != nil {
		return fmt.Errorf("trace: ext writer: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var prevStart sim.Time
	var tmp [binary.MaxVarintLen64]byte
	for _, c := range w.buf {
		bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c.Start-prevStart))])
		bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c.End-c.Start))])
		bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c.A))])
		bw.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c.B-c.A))])
		prevStart = c.Start
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	w.runs = append(w.runs, f.Name())
	w.buf = w.buf[:0]
	return nil
}

// Close merges the runs (and the final partial buffer) into the target
// binary file, then removes the temporary runs. The merge is published with
// WriteFileAtomic, so a crash mid-merge never leaves a torn target. It must
// be called exactly once; on error nothing is left behind — no target, no
// temp, no runs.
func (w *ExtWriter) Close() error {
	if w.closed {
		return errors.New("trace: ext writer already closed")
	}
	w.closed = true
	defer func() {
		for _, r := range w.runs {
			os.Remove(r)
		}
	}()

	nodes := w.minNodes
	if int(w.maxNode)+1 > nodes {
		nodes = int(w.maxNode) + 1
	}
	if nodes <= 0 {
		return ErrNoNodes
	}
	return WriteFileAtomic(w.path, func(out io.Writer) error {
		bw, err := NewBinaryWriter(out, w.name, nodes)
		if err != nil {
			return err
		}
		if err := w.merge(bw); err != nil {
			return err
		}
		return bw.Close()
	})
}

// merge feeds every buffered and spilled contact to bw in sorted order.
func (w *ExtWriter) merge(bw *BinaryWriter) error {
	// Fast path: everything fit in memory — sort and write directly.
	if len(w.runs) == 0 {
		sort.Slice(w.buf, func(i, j int) bool {
			return CompareContacts(w.buf[i], w.buf[j]) < 0
		})
		for _, c := range w.buf {
			if err := bw.Add(c); err != nil {
				return err
			}
		}
		return nil
	}

	// Spill the tail so the merge has uniform inputs.
	if err := w.spill(); err != nil {
		return err
	}
	var readers []*runReader
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	h := make(runHeap, 0, len(w.runs))
	for _, path := range w.runs {
		r, err := openRun(path)
		if err != nil {
			return err
		}
		readers = append(readers, r)
		if r.next() {
			h = append(h, r)
		} else if r.err != nil {
			return r.err
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		r := h[0]
		if err := bw.Add(r.cur); err != nil {
			return err
		}
		if r.next() {
			heap.Fix(&h, 0)
		} else {
			if r.err != nil {
				return r.err
			}
			heap.Pop(&h)
		}
	}
	return nil
}

// runReader streams one sorted run file back.
type runReader struct {
	f         *os.File
	r         *bufio.Reader
	cur       Contact
	prevStart sim.Time
	err       error
}

func openRun(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}, nil
}

func (r *runReader) next() bool {
	d, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	read := func() uint64 {
		if r.err != nil {
			return 0
		}
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: ext run: %w", err)
		}
		return v
	}
	dur, a, ba := read(), read(), read()
	if r.err != nil {
		return false
	}
	r.cur.Start = r.prevStart + sim.Time(d)
	r.prevStart = r.cur.Start
	r.cur.End = r.cur.Start + sim.Time(dur)
	r.cur.A = NodeID(a)
	r.cur.B = NodeID(a + ba)
	return true
}

func (r *runReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// runHeap is a min-heap of run readers keyed by their current contact.
type runHeap []*runReader

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(i, j int) bool { return CompareContacts(h[i].cur, h[j].cur) < 0 }
func (h runHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
