// Package topology implements the network model of the paper: a set of
// directed logical links E*, a set of end-to-end paths P*, the coverage
// functions Paths(E) and Links(P), and correlation sets (Assumption 5).
//
// Two graph granularities coexist, mirroring §3.2 of the paper:
//
//   - the AS-level graph is what the tomography algorithms see: each
//     Link is an inter-domain link or an intra-domain path between
//     border routers, and each Path is an end-to-end AS-level path;
//   - the router-level graph is hidden from the algorithms but drives
//     the simulator's link correlations: every AS-level Link records the
//     underlying router-level link IDs it traverses, and AS-level links
//     that share a router-level link congest together.
//
// Correlation sets default to one per AS ("since we do not know which
// links of each AS are correlated, we assume that all links that belong
// to the same AS may be correlated", §2).
package topology

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// Link is a logical (AS-level) link.
type Link struct {
	ID   int    // index into Topology.Links
	Name string // human-readable label, e.g. "AS7018:3->AS1299:0"
	AS   int    // autonomous system owning the link; -1 if unknown

	// RouterLinks lists the router-level link IDs this logical link is
	// built from. Logical links sharing a router-level link are
	// correlated: if the shared router-level link congests, all of them
	// congest in the same interval (§3.2, "Topologies").
	RouterLinks []int
}

// Path is a loop-free end-to-end path: an ordered sequence of link IDs.
type Path struct {
	ID    int
	Name  string
	Links []int
}

// Topology bundles links, paths, and correlation sets, plus the derived
// coverage indices used heavily by every algorithm.
type Topology struct {
	Links []Link
	Paths []Path

	// CorrSets partitions link IDs into correlation sets (Assumption 5).
	// Links within a set may be correlated; links across sets are
	// independent. If empty, each link is its own correlation set.
	CorrSets [][]int

	linkPaths []*bitset.Set // link ID -> set of path IDs traversing it
	pathLinks []*bitset.Set // path ID -> set of link IDs it traverses
	linkSet   []int         // link ID -> index of its correlation set
	built     bool
}

// New assembles a topology and builds its indices. It panics on
// structurally invalid input; use NewChecked for an error-returning
// build.
func New(links []Link, paths []Path, corrSets [][]int) *Topology {
	t, err := NewChecked(links, paths, corrSets)
	if err != nil {
		panic(err)
	}
	return t
}

// NewChecked assembles a topology and builds its indices, reporting
// structurally invalid input as an error instead of panicking.
func NewChecked(links []Link, paths []Path, corrSets [][]int) (*Topology, error) {
	t := &Topology{Links: links, Paths: paths, CorrSets: corrSets}
	if err := t.Build(); err != nil {
		return nil, err
	}
	return t, nil
}

// Build (re)derives the coverage indices and validates the structure.
// A topology needs at least one path: with none there is nothing to
// observe, and no estimator can solve it.
func (t *Topology) Build() error {
	n, m := len(t.Links), len(t.Paths)
	if m == 0 {
		return errors.New("topology: no paths")
	}
	for i := range t.Links {
		if t.Links[i].ID != i {
			return fmt.Errorf("topology: link %d has ID %d; IDs must be dense indices", i, t.Links[i].ID)
		}
	}
	for i := range t.Paths {
		if t.Paths[i].ID != i {
			return fmt.Errorf("topology: path %d has ID %d; IDs must be dense indices", i, t.Paths[i].ID)
		}
	}
	t.linkPaths = make([]*bitset.Set, n)
	for i := range t.linkPaths {
		t.linkPaths[i] = bitset.New(m)
	}
	t.pathLinks = make([]*bitset.Set, m)
	for pi, p := range t.Paths {
		pl := bitset.New(n)
		for _, li := range p.Links {
			if li < 0 || li >= n {
				return fmt.Errorf("topology: path %d references unknown link %d", pi, li)
			}
			if pl.Contains(li) {
				return fmt.Errorf("topology: path %d traverses link %d twice (loops are not allowed)", pi, li)
			}
			pl.Add(li)
			t.linkPaths[li].Add(pi)
		}
		if len(p.Links) == 0 {
			return fmt.Errorf("topology: path %d is empty", pi)
		}
		t.pathLinks[pi] = pl
	}
	if len(t.CorrSets) == 0 {
		t.CorrSets = make([][]int, n)
		for i := 0; i < n; i++ {
			t.CorrSets[i] = []int{i}
		}
	}
	t.linkSet = make([]int, n)
	for i := range t.linkSet {
		t.linkSet[i] = -1
	}
	for ci, set := range t.CorrSets {
		if len(set) == 0 {
			return fmt.Errorf("topology: correlation set %d is empty", ci)
		}
		for _, li := range set {
			if li < 0 || li >= n {
				return fmt.Errorf("topology: correlation set %d references unknown link %d", ci, li)
			}
			if t.linkSet[li] != -1 {
				return fmt.Errorf("topology: link %d appears in correlation sets %d and %d", li, t.linkSet[li], ci)
			}
			t.linkSet[li] = ci
		}
	}
	for li, ci := range t.linkSet {
		if ci == -1 {
			return fmt.Errorf("topology: link %d belongs to no correlation set", li)
		}
	}
	t.built = true
	return nil
}

// NumLinks returns |E*|.
func (t *Topology) NumLinks() int { return len(t.Links) }

// NumPaths returns |P*|.
func (t *Topology) NumPaths() int { return len(t.Paths) }

// PathLinks returns the set of link IDs traversed by path p
// (Links({p})). The returned set must not be modified.
func (t *Topology) PathLinks(p int) *bitset.Set { return t.pathLinks[p] }

// LinkPaths returns the set of path IDs traversing link e
// (Paths({e})). The returned set must not be modified.
func (t *Topology) LinkPaths(e int) *bitset.Set { return t.linkPaths[e] }

// PathsOf implements the path coverage function Paths(E): the set of
// paths that traverse at least one link in E.
func (t *Topology) PathsOf(links *bitset.Set) *bitset.Set {
	out := bitset.New(len(t.Paths))
	links.ForEach(func(li int) bool {
		out.UnionWith(t.linkPaths[li])
		return true
	})
	return out
}

// PathsOfSlice is PathsOf for a slice of link IDs.
func (t *Topology) PathsOfSlice(links []int) *bitset.Set {
	out := bitset.New(len(t.Paths))
	for _, li := range links {
		out.UnionWith(t.linkPaths[li])
	}
	return out
}

// LinksOf implements the link coverage function Links(P): the set of
// links traversed by at least one path in P.
func (t *Topology) LinksOf(paths *bitset.Set) *bitset.Set {
	out := bitset.New(len(t.Links))
	paths.ForEach(func(pi int) bool {
		out.UnionWith(t.pathLinks[pi])
		return true
	})
	return out
}

// PotentiallyCongestedLinks returns the complement of goodLinks (the
// links traversed by an always-good path, from LinksOf): §5.2's
// potentially congested set, the shared evaluation universe of every
// estimator.
func (t *Topology) PotentiallyCongestedLinks(goodLinks *bitset.Set) *bitset.Set {
	out := bitset.New(len(t.Links))
	for e := 0; e < len(t.Links); e++ {
		if !goodLinks.Contains(e) {
			out.Add(e)
		}
	}
	return out
}

// CorrSetOf returns the index (into CorrSets) of the correlation set
// that link e belongs to.
func (t *Topology) CorrSetOf(e int) int { return t.linkSet[e] }

// CorrSetLinks returns the link IDs of correlation set c.
func (t *Topology) CorrSetLinks(c int) []int { return t.CorrSets[c] }

// Complement returns the complement Ē = C \ E of a correlation subset E
// inside its correlation set C. All links in E must belong to the same
// correlation set; otherwise Complement panics.
func (t *Topology) Complement(subset *bitset.Set) *bitset.Set {
	cs := -1
	subset.ForEach(func(li int) bool {
		if cs == -1 {
			cs = t.linkSet[li]
		} else if t.linkSet[li] != cs {
			panic("topology: Complement of a set spanning multiple correlation sets")
		}
		return true
	})
	out := bitset.New(len(t.Links))
	if cs == -1 {
		return out // complement of the empty subset is empty by convention
	}
	for _, li := range t.CorrSets[cs] {
		if !subset.Contains(li) {
			out.Add(li)
		}
	}
	return out
}

// PathLen returns d, the number of links traversed by path p; used for
// the path congestion threshold 1-(1-f)^d.
func (t *Topology) PathLen(p int) int { return len(t.Paths[p].Links) }

// MeanPathsPerLink reports the density measure used in the paper's
// discussion of sparse vs dense topologies: the average number of paths
// that traverse a link, over links traversed by at least one path.
func (t *Topology) MeanPathsPerLink() float64 {
	total, covered := 0, 0
	for _, lp := range t.linkPaths {
		if c := lp.Count(); c > 0 {
			total += c
			covered++
		}
	}
	if covered == 0 {
		return 0
	}
	return float64(total) / float64(covered)
}
