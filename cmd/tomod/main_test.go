package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFlagSurface pins every flag name and default against
// testdata/flags.golden, so an added, removed or re-defaulted knob is
// a visible diff in review.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("tomod", flag.ContinueOnError)
	new(options).register(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&got, "-%s=%s\n", f.Name, f.DefValue)
	})
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed; if intended, update testdata/flags.golden and MIGRATION.md.\ngot:\n%swant:\n%s", got.String(), want)
	}
}
