package main

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// goldenFS holds each experiment's text render as produced by the
// tree the benchmark was defined on; a faster simulator must
// reproduce every byte.
//
//go:embed golden/*.txt
var goldenFS embed.FS

// golden returns the stored render of experiment id.
func golden(id string) (string, error) {
	data, err := fs.ReadFile(goldenFS, "golden/"+id+".txt")
	if err != nil {
		return "", fmt.Errorf("no golden for %s: %w", id, err)
	}
	return string(data), nil
}

// diffText compares a render with its golden byte for byte. It returns
// "" when they match and otherwise names the first line that differs.
func diffText(want, got string) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "outputs differ"
}

// writeGoldens stores renders as golden files under dir (used once to
// record the goldens, and again only when an output change is meant).
func writeGoldens(dir string, renders map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for id, text := range renders {
		if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}
