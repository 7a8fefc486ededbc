package core

import (
	"testing"

	"repro/internal/bitset"
)

// NewShardResultLike shares its template's structure — path sets,
// subset index, structure token — and refuses subsets that are not the
// template's.
func TestNewShardResultLike(t *testing.T) {
	subsets := []SubsetResult{
		{Links: bitset.FromIndices(8, 1), CorrSet: 0},
		{Links: bitset.FromIndices(8, 2, 5), CorrSet: 1},
	}
	prev := NewShardResult(subsets, []*bitset.Set{bitset.FromIndices(4, 0, 3)}, 2, 0, 0)
	next := []SubsetResult{
		{Links: subsets[0].Links, CorrSet: 0, GoodProb: 0.5, Identifiable: true},
		{Links: subsets[1].Links, CorrSet: 1, GoodProb: 0.25, Identifiable: true},
	}
	r := NewShardResultLike(prev, next, 2, 0, 1)
	if r.shape != prev.shape || &r.PathSets[0] != &prev.PathSets[0] || r.ClampedRows != 1 {
		t.Fatalf("result does not share its template's structure: shape %d/%d", r.shape, prev.shape)
	}
	if i, ok := r.index[subsets[1].Links.Key()]; !ok || i != 1 {
		t.Fatalf("subset 1 indexed at (%d,%v)", i, ok)
	}
	for name, bad := range map[string][]SubsetResult{
		"fewer subsets":       next[:1],
		"an equal, other set": {next[0], {Links: subsets[1].Links.Clone(), CorrSet: 1}},
		"another corr set":    {next[0], {Links: subsets[1].Links, CorrSet: 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewShardResultLike(prev, bad, 2, 0, 0)
		}()
	}
}
