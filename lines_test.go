package shc_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// internalLineCeiling is the most code lines the non-test .go files under
// internal/ may hold. A change that deletes lines lowers it to the new
// count; one that must raise it says why in CHANGES.md.
const internalLineCeiling = 21291

// TestInternalLineCeiling holds the size of the engine: it counts the
// lines of non-test .go files under internal/ that are neither blank nor
// a // comment, and fails when the count is above internalLineCeiling.
func TestInternalLineCeiling(t *testing.T) {
	n := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "//") {
				n++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no code lines under internal/; the count checked nothing")
	}
	if n > internalLineCeiling {
		t.Fatalf("non-test internal/ holds %d code lines, above the ceiling of %d: delete code, or raise internalLineCeiling and say why in CHANGES.md", n, internalLineCeiling)
	}
	if n < internalLineCeiling {
		t.Logf("non-test internal/ holds %d code lines, below the ceiling of %d: lower internalLineCeiling to %d", n, internalLineCeiling, n)
	}
}
