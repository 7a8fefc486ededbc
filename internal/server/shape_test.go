package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// populate sets every field reachable from v to a non-zero value (one
// element per slice, a fresh target per pointer), so no omitempty key
// is dropped from the encoding.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i))
		}
	default:
		panic(fmt.Sprintf("populate: unhandled kind %s", v.Kind()))
	}
}

// jsonKeys returns the sorted key paths of v's JSON encoding: nested
// objects as parent.child, array elements as parent[].
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, node any)
	walk = func(prefix string, node any) {
		switch n := node.(type) {
		case map[string]any:
			for k, child := range n {
				walk(strings.TrimPrefix(prefix+"."+k, "."), child)
			}
		case []any:
			for _, child := range n {
				walk(prefix+"[]", child)
			}
		default:
			keys = append(keys, prefix)
		}
	}
	walk("", tree)
	sort.Strings(keys)
	return keys
}

// TestStatusJSONShape pins the key sets of GET /v1/status (with one
// shard row) and of a GET /v1/epochs record, fully populated and zero,
// against testdata/status_shape.golden — so a struct refactor behind
// those bodies cannot add, drop or rename a key, or flip an omitempty.
func TestStatusJSONShape(t *testing.T) {
	var got strings.Builder
	section := func(name string, v any) {
		fmt.Fprintf(&got, "== %s\n%s\n", name, strings.Join(jsonKeys(t, v), "\n"))
	}
	var status StatusResponse
	populate(reflect.ValueOf(&status).Elem())
	section("StatusResponse populated", status)
	section("StatusResponse zero", StatusResponse{Shards: []ShardStatus{{}}})
	var rec EpochRecord
	populate(reflect.ValueOf(&rec).Elem())
	section("EpochRecord populated", rec)
	section("EpochRecord zero", EpochRecord{})

	want, err := os.ReadFile("testdata/status_shape.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("JSON shape changed; if intended, update testdata/status_shape.golden and MIGRATION.md.\ngot:\n%swant:\n%s", got.String(), want)
	}
}
