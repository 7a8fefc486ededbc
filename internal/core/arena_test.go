package core

import (
	"fmt"
	"testing"
)

// enumerateSubsetsOfPaths yields the non-empty subsets of the given
// path IDs in increasing size (single paths first, then pairs, …).
// fn returns false to stop. It is the closure form comboIter replaced,
// kept as its executable specification.
func enumerateSubsetsOfPaths(paths []int, fn func(chosen []int) bool) {
	n := len(paths)
	stop := false
	for size := 1; size <= n && !stop; size++ {
		enumCombos(n, size, func(idx []int) {
			if stop {
				return
			}
			chosen := make([]int, size)
			for k, i := range idx {
				chosen[k] = paths[i]
			}
			if !fn(chosen) {
				stop = true
			}
		})
	}
}

// enumCombos invokes fn with each k-combination of {0..n-1}.
func enumCombos(n, k int, fn func(idx []int)) {
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		if !nextCombo(idx, n) {
			return
		}
	}
}

// comboIter must stream candidates in exactly the order of
// enumerateSubsetsOfPaths — the augmentation loop's selection depends
// on it.
func TestComboIterMatchesEnumerateSubsetsOfPaths(t *testing.T) {
	for _, paths := range [][]int{
		{},
		{7},
		{3, 9},
		{1, 4, 6},
		{2, 3, 5, 8, 13},
		{0, 1, 2, 3, 4, 5},
	} {
		var want [][]int
		enumerateSubsetsOfPaths(paths, func(chosen []int) bool {
			want = append(want, append([]int(nil), chosen...))
			return true
		})
		it := comboIter{paths: paths}
		var got [][]int
		for it.next() {
			got = append(got, it.appendChosen(nil))
		}
		if len(got) != len(want) {
			t.Fatalf("paths %v: %d subsets, want %d", paths, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("paths %v: subset %d = %v, want %v", paths, i, got[i], want[i])
			}
		}
	}
}
