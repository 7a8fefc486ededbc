package core

import (
	"context"
	"math"
	"testing"
)

// identifySolve runs Identify over a 0/1 log-domain system and solves
// the identified part against rhs, returning min(exp(x), 1) and the
// identifiability verdict per column (0 and false when unidentified).
func identifySolve(t *testing.T, rows [][]int, rhs []float64, nCols int) (g []float64, ident []bool) {
	t.Helper()
	colMap, active, qr, err := Identify(context.Background(), rows, nCols)
	if err != nil {
		t.Fatal(err)
	}
	g, ident = make([]float64, nCols), make([]bool, nCols)
	if qr == nil {
		if len(colMap) != 0 {
			t.Fatalf("colMap %v without a factorization", colMap)
		}
		return g, ident
	}
	var b []float64
	for ri, a := range active {
		if a {
			b = append(b, rhs[ri])
		}
	}
	x, err := qr.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range colMap {
		g[c], ident[c] = min(math.Exp(x[k]), 1), true
	}
	return g, ident
}

func TestIdentifyBasics(t *testing.T) {
	// x0 + x1 = log(0.25), x0 = log(0.5) -> g0 = 0.5, g1 = 0.5.
	rows := [][]int{{0, 1}, {0}}
	rhs := []float64{math.Log(0.25), math.Log(0.5)}
	g, ident := identifySolve(t, rows, rhs, 2)
	if !ident[0] || !ident[1] {
		t.Fatal("both columns should be identifiable")
	}
	if math.Abs(g[0]-0.5) > 1e-9 || math.Abs(g[1]-0.5) > 1e-9 {
		t.Fatalf("g = %v", g)
	}
}

func TestIdentifyUnidentifiable(t *testing.T) {
	// Only x0 + x1 observed: neither is identifiable.
	g, ident := identifySolve(t, [][]int{{0, 1}}, []float64{math.Log(0.3)}, 2)
	if ident[0] || ident[1] {
		t.Fatalf("columns should be unidentifiable, got %v %v", ident, g)
	}
	// Empty inputs.
	if g, ident := identifySolve(t, nil, nil, 3); ident[0] || g[0] != 0 {
		t.Fatal("empty system should identify nothing")
	}
}

func TestIdentifyPartialIdentifiability(t *testing.T) {
	// x0 identifiable; x1 + x2 only jointly observed.
	rows := [][]int{{0}, {1, 2}, {0, 1, 2}}
	rhs := []float64{math.Log(0.5), math.Log(0.4), math.Log(0.2)}
	g, ident := identifySolve(t, rows, rhs, 3)
	if !ident[0] {
		t.Fatal("x0 should be identifiable")
	}
	if ident[1] || ident[2] {
		t.Fatal("x1, x2 should not be identifiable")
	}
	if math.Abs(g[0]-0.5) > 1e-9 {
		t.Fatalf("g0 = %v", g[0])
	}
}
