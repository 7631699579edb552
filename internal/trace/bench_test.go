package trace

import (
	"io"
	"os"
	"testing"
)

// benchTrace is sized so one iteration is meaningful under -benchtime=1x
// (`make bench-smoke`) while staying fast: ~200k contacts, several dozen
// binary blocks.
func benchTrace(b *testing.B) *Trace {
	b.Helper()
	return randomTrace(b, 99, 500, 200_000)
}

// BenchmarkTraceWriteBinary measures binary serialization throughput: the
// path `tracegen -out x.g2gt` writes through.
func BenchmarkTraceWriteBinary(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len() * 16)) // approximate decoded contact size
}

// BenchmarkTraceStreamBinary measures the engine-facing hot path: a full
// cursor drain of a binary file through BinarySource, including per-block
// validation — what every simulation pays to consume an on-disk trace.
func BenchmarkTraceStreamBinary(b *testing.B) {
	tr := benchTrace(b)
	path := writeBinaryFile(b, tr)
	src, err := OpenBinary(path)
	if err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := src.Cursor()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		cur.Close()
		if n != tr.Len() {
			b.Fatalf("streamed %d contacts, want %d", n, tr.Len())
		}
	}
}

// BenchmarkTraceStreamMemory is the in-memory baseline for the same drain:
// the gap between this and BenchmarkTraceStreamBinary is the decode cost.
func BenchmarkTraceStreamMemory(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, _ := tr.Cursor()
		n := 0
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
			n++
		}
		cur.Close()
		if n != tr.Len() {
			b.Fatalf("streamed %d contacts, want %d", n, tr.Len())
		}
	}
}
