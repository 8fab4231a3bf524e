package chaos_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"typhoon/internal/chaos"
	"typhoon/internal/scenario"
)

// soakPlan renders the shipped chaos-soak scenario's chaos events as a
// plan, filling worker-targeted kinds with a placeholder worker the way the
// scenario runner fills it from the live placement.
func soakPlan(f *testing.F) chaos.Plan {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "chaos-soak.json"))
	if err != nil {
		f.Fatal(err)
	}
	spec, err := scenario.ParseSpec(raw)
	if err != nil {
		f.Fatal(err)
	}
	p := chaos.Plan{Seed: spec.Seed}
	for _, e := range spec.Chaos {
		s := chaos.Spec{
			Kind: chaos.Kind(e.Kind), Host: e.Host, Peer: e.Peer,
			Duration: e.Duration.D(), DropRate: e.DropRate,
			Latency: e.Latency.D(), Jitter: e.Jitter.D(), Delay: e.Delay.D(),
			Controller: e.Controller,
		}
		if e.Tenant != "" {
			s.Topo, s.Worker = "scn-"+e.Tenant, 1
		}
		p.Events = append(p.Events, chaos.Event{After: e.After.D(), Spec: s})
	}
	if err := p.Validate(); err != nil {
		f.Fatalf("chaos-soak plan does not validate: %v", err)
	}
	return p
}

// FuzzDecodePlan feeds arbitrary bytes through the decoder a chaos plan
// body takes. Nothing may panic, an accepted plan is a fixed point of
// Encode → DecodePlan, and every accepted event renders a log line.
func FuzzDecodePlan(f *testing.F) {
	f.Add(soakPlan(f).Encode())
	f.Add([]byte(`{"seed":7,"events":[{"after":0,"spec":{"kind":"heal"}},{"after":1,"spec":{"kind":"controller-kill","controller":"ctl-0"}}]}`))
	f.Add([]byte(`{"events":[{"after":-1,"spec":{"kind":"netem","host":"a","peer":"b","dropRate":2}}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		first, err := chaos.DecodePlan(raw)
		if err != nil {
			return
		}
		again := first.Encode()
		second, err := chaos.DecodePlan(again)
		if err != nil {
			t.Fatalf("accepted plan's re-encoding is rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-encoding changed the plan:\n first: %+v\nsecond: %+v\n  json: %s", first, second, again)
		}
		for i, ev := range first.Events {
			if ev.Spec.String() == "" {
				t.Fatalf("event %d (%+v) renders an empty string", i, ev.Spec)
			}
		}
	})
}
