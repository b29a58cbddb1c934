package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode holds the spec decoder — the only way to configure a custom
// scenario or adversary from outside the program — to its contract on
// arbitrary bytes: it may return an error but never panics, and an
// accepted spec fingerprints without panicking. The corpus starts from
// every committed spec and example.
func FuzzDecode(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{"../../specs/*.json", "../../examples/*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, files...)
	}
	if len(seeds) == 0 {
		f.Fatal("no committed specs to seed the corpus")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return
		}
		sp.Digest()
	})
}
