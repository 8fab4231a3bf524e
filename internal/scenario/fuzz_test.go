package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"typhoon/internal/scenario"
)

// FuzzParseSpec feeds arbitrary bytes through the path a POST body takes at
// /api/v1/scenario. Nothing may panic, and a spec that parses is a fixed
// point of normalization: re-encoded, it parses to an equal value.
func FuzzParseSpec(f *testing.F) {
	shipped, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped specs to seed from: %v", err)
	}
	for _, name := range shipped {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"duration":1000000000,"relaxed":true,"tenants":[{"name":"a","trace":{"replay":[{"at":"1ms","key":"k"}]}}],"chaos":[{"after":"0s","kind":"crash","tenant":"a"}],"rescales":[{"after":"0s","tenant":"a","parallelism":3}]}`))
	f.Add([]byte(`{"duration":"1s","tenants":[],"typo":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		first, err := scenario.ParseSpec(raw)
		if err != nil {
			return
		}
		again, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("parsed spec does not encode: %v\n%+v", err, first)
		}
		second, err := scenario.ParseSpec(again)
		if err != nil {
			t.Fatalf("parsed spec's re-encoding does not parse: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-encoding changed the spec:\n first: %+v\nsecond: %+v\n  json: %s", first, second, again)
		}
	})
}
