package topology

import (
	"bytes"
	"testing"
)

// FuzzTopologyReadJSON hands ReadJSON arbitrary bytes. It never panics;
// anything it accepts has at least one path and writes back canonically:
// WriteJSON → ReadJSON → WriteJSON is byte-identical.
func FuzzTopologyReadJSON(f *testing.F) {
	var fig1 bytes.Buffer
	if err := Fig1Case1().WriteJSON(&fig1); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		fig1.String(),
		`{"links":[],"paths":[]}`,
		`{"links":[{"ID":0}],"paths":[]}`,
		`{"links":[{"ID":0,"AS":3,"RouterLinks":[7]}],"paths":[{"ID":0,"Links":[0]}],"correlation_sets":[[0]]}`,
		`{"links":[{"ID":0}],"paths":[{"ID":0,"Links":[9]}]}`,
		`{"links":[{"ID":0},{"ID":1}],"paths":[{"ID":0,"Links":[1,0]}],"correlation_sets":[[1],[0]]}`,
		`{nope`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		top, err := ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if top.NumPaths() == 0 {
			t.Fatal("ReadJSON accepted a topology with no path")
		}
		var first, second bytes.Buffer
		if err := top.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON refuses what WriteJSON wrote: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteJSON → ReadJSON → WriteJSON changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
