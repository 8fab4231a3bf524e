package apiclient_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"typhoon/internal/apiclient"
	"typhoon/internal/chaos"
	"typhoon/internal/core"
	"typhoon/internal/observe"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// serve mounts the real observe.Handler so the client is tested against
// the production envelope wrapping, not a hand-rolled fake.
func serve(t *testing.T, o observe.ServerOptions) *apiclient.Client {
	t.Helper()
	srv := httptest.NewServer(observe.Handler(o))
	t.Cleanup(srv.Close)
	return apiclient.New(strings.TrimPrefix(srv.URL, "http://"))
}

func TestTopDecodesEnvelope(t *testing.T) {
	want := observe.TopSnapshot{
		At:       time.Unix(1700000000, 0).UTC(),
		Switches: []observe.SwitchRow{{Host: "h1", Ports: 3, Rules: 7, RxFrames: 42}},
	}
	cl := serve(t, observe.ServerOptions{Top: func() observe.TopSnapshot { return want }})
	got, err := cl.Top()
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if len(got.Switches) != 1 || got.Switches[0] != want.Switches[0] {
		t.Fatalf("Top = %+v, want %+v", got, want)
	}
}

func TestErrorEnvelopeBecomesTypedError(t *testing.T) {
	cl := serve(t, observe.ServerOptions{
		Qos: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no such topology", http.StatusConflict)
		}),
	})
	err := cl.QoSSet("ghost", "burstable", 0)
	apiErr, ok := err.(*apiclient.Error)
	if !ok {
		t.Fatalf("QoSSet error = %T (%v), want *apiclient.Error", err, err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Message != "no such topology" {
		t.Fatalf("error = %+v, want 409/no such topology", apiErr)
	}
}

func TestDisabledRouteIs404(t *testing.T) {
	cl := serve(t, observe.ServerOptions{}) // no handlers wired at all
	_, err := cl.ControlPlane()
	apiErr, ok := err.(*apiclient.Error)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("ControlPlane on bare server = %v, want 404 Error", err)
	}
}

func TestChaosApplyAndLog(t *testing.T) {
	var gotSpec chaos.Spec
	cl := serve(t, observe.ServerOptions{
		Chaos: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.Method == http.MethodPost {
				_ = json.NewDecoder(r.Body).Decode(&gotSpec)
				_ = json.NewEncoder(w).Encode(map[string]string{"applied": "partition h1<->h2"})
				return
			}
			_ = json.NewEncoder(w).Encode([]chaos.Injection{{Detail: "wiped 12 rules"}})
		}),
	})
	applied, err := cl.ChaosApply(chaos.Spec{Kind: chaos.KindPartition, Host: "h1", Peer: "h2"})
	if err != nil || applied != "partition h1<->h2" {
		t.Fatalf("ChaosApply = %q, %v", applied, err)
	}
	if gotSpec.Kind != chaos.KindPartition || gotSpec.Host != "h1" || gotSpec.Peer != "h2" {
		t.Fatalf("server saw spec %+v", gotSpec)
	}
	log, err := cl.ChaosLog()
	if err != nil || len(log) != 1 || log[0].Detail != "wiped 12 rules" {
		t.Fatalf("ChaosLog = %+v, %v", log, err)
	}
}

func TestTransportErrorMentionsMetricsFlag(t *testing.T) {
	cl := apiclient.New("127.0.0.1:1") // nothing listens on port 1
	_, err := cl.Top()
	if err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Fatalf("Top against dead endpoint = %v, want hint about -metrics", err)
	}
	if _, ok := err.(*apiclient.Error); ok {
		t.Fatalf("transport failure should not be an API *Error: %v", err)
	}
}

// TestQoSStatusMirrorsCore pins the client's QoS types to the server's
// wire format: a core.QoSStatusReport must round-trip losslessly into
// apiclient.QoSStatus.
func TestQoSStatusMirrorsCore(t *testing.T) {
	report := core.QoSStatusReport{
		Enabled: true,
		Hosts: []core.QoSHostRow{{
			Host:       "h1",
			MeterDrops: 9,
			Meters:     []switchfabric.MeterInfo{{ID: 1, RateBps: 1 << 20, BurstBytes: 64 << 10, Drops: 9}},
			Queues:     []switchfabric.QueueStats{{Class: "guaranteed", Depth: 2, Enqueued: 100, Dropped: 1}},
		}},
		Queues: core.DefaultQueueClasses(),
	}
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var got apiclient.QoSStatus
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(blob) {
		t.Fatalf("round trip mismatch:\n core: %s\nclient: %s", blob, back)
	}
}

// TestBatchStatusMirrorsCore pins the client's batch types to the server's
// wire format: a core.BatchStatusReport must round-trip losslessly into
// apiclient.BatchStatus.
func TestBatchStatusMirrorsCore(t *testing.T) {
	report := core.BatchStatusReport{
		DefaultSize:     256,
		FlushDeadlineNs: int64(2 * time.Millisecond),
		Hosts: []core.BatchHostRow{{
			Host: "h1", Workers: 3,
			TuplesSent: 1000, FramesSent: 11, TuplesReceived: 990,
			BatchOccupancy: 90.9,
		}},
	}
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var got apiclient.BatchStatus
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(blob) {
		t.Fatalf("round trip mismatch:\n core: %s\nclient: %s", blob, back)
	}
}

func TestBatchSetQuery(t *testing.T) {
	var gotQuery string
	cl := serve(t, observe.ServerOptions{
		Batch: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			gotQuery = r.URL.RawQuery
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		}),
	})
	if err := cl.BatchSet(256, -time.Millisecond); err != nil {
		t.Fatalf("BatchSet: %v", err)
	}
	if gotQuery != "deadline=-1ms&size=256" {
		t.Fatalf("query = %q", gotQuery)
	}
}

func TestQoSStatusThroughHandler(t *testing.T) {
	cl := serve(t, observe.ServerOptions{
		Qos: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(core.QoSStatusReport{
				Enabled: true,
				Queues:  core.DefaultQueueClasses(),
			})
		}),
	})
	st, err := cl.QoS()
	if err != nil {
		t.Fatalf("QoS: %v", err)
	}
	if !st.Enabled || len(st.Queues) != 3 || st.Queues[0].Name != "guaranteed" {
		t.Fatalf("QoS = %+v", st)
	}
}

// TestTopologiesAgainstStormCluster drives /api/v1/topologies on a real
// baseline-mode cluster (it has a streaming manager too): the typed calls
// succeed, and every refusal is the error half of the envelope with the
// handler's status.
func TestTopologiesAgainstStormCluster(t *testing.T) {
	c, err := core.NewCluster(core.Config{Mode: core.ModeStorm, Hosts: []string{"h1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Env.Set(workload.EnvStats, workload.NewStats(time.Second))
	c.Env.Set(workload.EnvConfig, workload.NewConfig())
	b := topology.NewBuilder("pipe", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.ObserveHandler())
	defer srv.Close()
	cl := apiclient.New(strings.TrimPrefix(srv.URL, "http://"))

	if names, err := cl.Topologies(); err != nil || len(names) != 1 || names[0] != "pipe" {
		t.Fatalf("Topologies = %v, %v", names, err)
	}
	if err := cl.Scale("pipe", "sink", 2); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	lg, ph, err := cl.Describe("pipe")
	if err != nil || lg.Node("sink").Parallelism != 2 || len(ph.Instances("sink")) != 2 {
		t.Fatalf("Describe after Scale = %+v, %+v, %v", lg, ph, err)
	}

	refused := func(what string, err error, status int) {
		t.Helper()
		apiErr, ok := err.(*apiclient.Error)
		if !ok || apiErr.Status != status || apiErr.Message == "" {
			t.Errorf("%s = %v, want *apiclient.Error with status %d", what, err, status)
		}
	}
	_, _, err = cl.Describe("ghost")
	refused("Describe(unknown topology)", err, http.StatusNotFound)
	refused("Scale(unknown topology)", cl.Scale("ghost", "sink", 2), http.StatusNotFound)
	refused("Kill(unknown topology)", cl.Kill("ghost"), http.StatusNotFound)
	refused("Scale(unknown node)", cl.Scale("pipe", "ghost", 2), http.StatusConflict)
	refused("SwapLogic(unknown node)", cl.SwapLogic("pipe", "ghost", workload.LogicForwarder), http.StatusConflict)
	refused("Scale(parallelism 0)", cl.Scale("pipe", "sink", 0), http.StatusBadRequest)

	// A mutating op sent as GET is refused, in the envelope, and does nothing.
	resp, err := http.Get(srv.URL + "/api/v1/topologies?name=pipe&op=kill")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env observe.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET op=kill: body is not an envelope: %v", err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error == nil || env.Error.Code != resp.StatusCode || env.Data != nil {
		t.Fatalf("GET op=kill = %d %+v, want a 405 error envelope", resp.StatusCode, env)
	}
	if names, _ := cl.Topologies(); len(names) != 1 {
		t.Fatalf("topology gone after a refused GET op=kill: %v", names)
	}
}
