package trace

import (
	"fmt"
	"io"
	"os"
)

// Open loads a contact trace from path through one entry point, sniffing
// the format from the file's leading bytes: a file that starts with the
// binary magic becomes a lazy streaming BinarySource; anything else is
// parsed as CRAWDAD-style text and materialized in memory. The ".g2gt"
// extension (BinaryExt) is the naming convention for binary traces, but
// detection never relies on it, so renamed files keep working.
func Open(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(binaryMagic)]byte
	if n, _ := io.ReadFull(f, magic[:]); string(magic[:n]) == binaryMagic {
		return OpenBinary(path)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	return t, nil
}
