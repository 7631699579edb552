package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"give2get/internal/sim"
)

// randomTrace draws a deterministic pseudo-random trace for property tests.
func randomTrace(t testing.TB, seed int64, nodes, contacts int) *Trace {
	t.Helper()
	rng := sim.StreamFromSeed(seed, "binary-test")
	cs := make([]Contact, contacts)
	for i := range cs {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes)
		for b == a {
			b = rng.Intn(nodes)
		}
		start := sim.Time(rng.Intn(72*3600*1000)) * sim.Time(1e6) // ms grain
		dur := sim.Time(1+rng.Intn(600*1000)) * sim.Time(1e6)
		cs[i] = Contact{A: NodeID(a), B: NodeID(b), Start: start, End: start + dur}
	}
	tr, err := New("rand", nodes, cs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func writeBinaryFile(t testing.TB, src Source) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace"+BinaryExt)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, src); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameContacts(t *testing.T, want, got []Contact) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("contact counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("contact %d differs: want %+v, got %+v", i, want[i], got[i])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(t, 1, 25, 10_000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	again, err := parseBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if again.Name() != tr.Name() || again.Nodes() != tr.Nodes() {
		t.Fatalf("header changed: %s/%d vs %s/%d",
			again.Name(), again.Nodes(), tr.Name(), tr.Nodes())
	}
	sameContacts(t, tr.Contacts(), again.Contacts())
}

func TestBinarySourceMetadata(t *testing.T) {
	tr := randomTrace(t, 2, 40, 20_000)
	src, err := OpenBinary(writeBinaryFile(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != tr.Len() {
		t.Errorf("footer count = %d, want %d", src.Len(), tr.Len())
	}
	wf, wl := tr.Span()
	gf, gl := src.Span()
	if gf != wf || gl != wl {
		t.Errorf("span = (%v,%v), want (%v,%v)", gf, gl, wf, wl)
	}
	if src.Nodes() != tr.Nodes() || src.Name() != tr.Name() {
		t.Errorf("header = %s/%d, want %s/%d", src.Name(), src.Nodes(), tr.Name(), tr.Nodes())
	}
}

// TestBinaryCursorMatchesMemory is the streaming-order property: a binary
// file's cursor must yield exactly the contacts of the in-memory trace, in
// the same canonical order, across several trace shapes.
func TestBinaryCursorMatchesMemory(t *testing.T) {
	for _, shape := range []struct{ nodes, contacts int }{
		{2, 1}, {5, 10}, {10, DefaultBlockContacts}, {10, DefaultBlockContacts + 1},
		{60, 3*DefaultBlockContacts + 17},
	} {
		t.Run(fmt.Sprintf("%dx%d", shape.nodes, shape.contacts), func(t *testing.T) {
			tr := randomTrace(t, int64(shape.contacts), shape.nodes, shape.contacts)
			src, err := OpenBinary(writeBinaryFile(t, tr))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := Materialize(src)
			if err != nil {
				t.Fatal(err)
			}
			sameContacts(t, tr.Contacts(), streamed.Contacts())
		})
	}
}

// TestTextBinaryTextLossless is the format's lossless contract on a random
// trace: text -> binary -> text reproduces the canonical text serialization
// byte for byte. cmd/tracegen's TestRunWritesBinaryByExtension checks the
// same property on a preset written through the CLI.
func TestTextBinaryTextLossless(t *testing.T) {
	tr := randomTrace(t, 3, 30, 5_000)

	var text1 bytes.Buffer
	if err := WriteText(&text1, tr); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(bytes.NewReader(text1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Re-serialize after the first parse: %.3f seconds is the format's
	// precision, so this is the canonical text form.
	var canonical bytes.Buffer
	if err := WriteText(&canonical, parsed); err != nil {
		t.Fatal(err)
	}

	src, err := OpenBinary(writeBinaryFile(t, parsed))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := WriteText(&back, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical.Bytes(), back.Bytes()) {
		t.Fatal("text -> binary -> text is not byte-identical")
	}
}

func TestOpenSniffsFormat(t *testing.T) {
	tr := randomTrace(t, 4, 8, 200)
	dir := t.TempDir()

	textPath := filepath.Join(dir, "trace.txt")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Binary contents under a .txt name: detection must follow the magic,
	// not the extension.
	disguised := filepath.Join(dir, "disguised.txt")
	g, err := os.Create(disguised)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(g, tr); err != nil {
		t.Fatal(err)
	}
	g.Close()

	fromText, err := Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fromText.(*Trace); !ok {
		t.Fatalf("text file opened as %T, want *Trace", fromText)
	}
	fromBin, err := Open(disguised)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fromBin.(*BinarySource); !ok {
		t.Fatalf("binary file opened as %T, want *BinarySource", fromBin)
	}
	if n, err := LenOf(fromBin); err != nil || n != tr.Len() {
		t.Fatalf("LenOf = %d, %v; want %d", n, err, tr.Len())
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	tr := randomTrace(t, 5, 12, 2_000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte{}, full...)
		bad[0] = 'X'
		if _, err := parseBinary(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(full) / 3, len(full) - 1, len(full) - footerSize - 1} {
			if _, err := parseBinary(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte{}, full...), 0xFF)
		if _, err := parseBinary(bytes.NewReader(bad)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("flipped-payload", func(t *testing.T) {
		// Flip a byte in the middle of the contact payload; some flips keep
		// the varint stream decodable, but the footer totals, per-block
		// bounds, or ordering checks must catch a fair share. This is a
		// smoke test that corruption does not crash the reader.
		bad := append([]byte{}, full...)
		bad[len(bad)/2] ^= 0x40
		_, _ = parseBinary(bytes.NewReader(bad)) // must not panic
	})
}

func TestBinaryWriterRejectsDisorder(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Add(Contact{A: 0, B: 1, Start: 10 * sim.Second, End: 20 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Add(Contact{A: 0, B: 1, Start: 5 * sim.Second, End: 8 * sim.Second}); err == nil {
		t.Fatal("out-of-order contact accepted")
	}
}

func TestExtWriterSpillsAndMerges(t *testing.T) {
	tr := randomTrace(t, 6, 50, 30_000)
	path := filepath.Join(t.TempDir(), "ext"+BinaryExt)
	// A tiny run buffer forces many spills and a real k-way merge.
	w := NewExtWriter(path, tr.Name(), tr.Nodes(), ExtOptions{RunContacts: 1000})
	// Feed contacts in reverse order so sortedness comes from the merge,
	// not the input.
	cs := tr.Contacts()
	for i := len(cs) - 1; i >= 0; i-- {
		if err := w.Add(cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.runs) < 2 {
		t.Fatalf("expected multiple spilled runs, got %d", len(w.runs))
	}
	src, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	sameContacts(t, tr.Contacts(), merged.Contacts())

	// The temporary run files must be gone.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestExtWriterFastPath(t *testing.T) {
	tr := randomTrace(t, 7, 10, 500)
	path := filepath.Join(t.TempDir(), "small"+BinaryExt)
	w := NewExtWriter(path, tr.Name(), tr.Nodes(), ExtOptions{})
	for _, c := range tr.Contacts() {
		if err := w.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.runs) != 0 {
		t.Fatalf("small input spilled %d runs", len(w.runs))
	}
	src, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	sameContacts(t, tr.Contacts(), got.Contacts())
}

func TestBinarySourceConcurrentCursors(t *testing.T) {
	tr := randomTrace(t, 8, 20, 5_000)
	src, err := OpenBinary(writeBinaryFile(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	// Two interleaved cursors over the same source must not disturb each
	// other (each owns its file handle).
	c1, err := src.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := src.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	want := tr.Contacts()
	for i := 0; i < len(want); i++ {
		a, ok1 := c1.Next()
		b, ok2 := c2.Next()
		if !ok1 || !ok2 {
			t.Fatalf("cursor ended early at %d (%v/%v)", i, c1.Err(), c2.Err())
		}
		if a != want[i] || b != want[i] {
			t.Fatalf("contact %d differs between cursors", i)
		}
	}
}

// parseBinary reads a complete binary trace from r into memory, the binary
// counterpart of Parse.
func parseBinary(r io.Reader) (*Trace, error) {
	cur, hdr, err := newBinaryCursor(bufio.NewReaderSize(r, 1<<16), nil)
	if err != nil {
		return nil, err
	}
	var cs []Contact
	for {
		c, ok := cur.Next()
		if !ok {
			break
		}
		cs = append(cs, c)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return New(hdr.name, hdr.nodes, cs)
}
