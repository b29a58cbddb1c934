package snapshot

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadJSON holds the snapshot reader — a kadconn -in input — to its
// contract on arbitrary bytes: it returns an error or a snapshot but
// never panics, and an accepted snapshot is consistent (one ID and one
// address per vertex) and survives a WriteJSON/ReadJSON round trip
// unchanged.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"time_ns":5,"bits":64,"nodes":[{"id":"0000000000000001","addr":1},{"id":"0000000000000002","addr":2}],"edges":[[0,1],[1,0]]}`)
	f.Add(`{"bits":64,"nodes":[{"id":"0000000000000001","addr":1},{"id":"0000000000000002","addr":2}],"edges":[[1,1]]}`)
	f.Add(`{"bits":8,"nodes":[{"id":"01","addr":1}],"edges":[[0,5]]}`)
	f.Add(`{"nodes":[],"edges":[]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if s.N() != len(s.IDs) || s.N() != len(s.Addrs) {
			t.Fatalf("%d vertices but %d IDs and %d addresses", s.N(), len(s.IDs), len(s.Addrs))
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted snapshot does not write back: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("written snapshot does not read back: %v", err)
		}
		if back.Time != s.Time || !back.Graph.Equal(s.Graph) ||
			!slices.Equal(back.IDs, s.IDs) || !slices.Equal(back.Addrs, s.Addrs) {
			t.Fatalf("round trip changed the snapshot")
		}
	})
}
