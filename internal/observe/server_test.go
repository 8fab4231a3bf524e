package observe

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) Envelope {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an envelope: %v\n%s", err, rec.Body.String())
	}
	return env
}

func testOptions() ServerOptions {
	reg := NewRegistry()
	reg.Counter("test_total", "A counter.", nil).Add(3)
	traces := NewTraceLog(4)
	return ServerOptions{
		Registry: reg,
		Traces:   traces,
		Top: func() TopSnapshot {
			return TopSnapshot{
				At:       time.Unix(1700000000, 0).UTC(),
				Switches: []SwitchRow{{Host: "h1", Ports: 2}},
			}
		},
	}
}

// TestV1RoutesServeEnvelopes pins the versioned contract: every /api/v1
// success is {"data": ...} with the payload intact.
func TestV1RoutesServeEnvelopes(t *testing.T) {
	h := Handler(testOptions())
	for _, path := range []string{"/api/v1/metrics", "/api/v1/top", "/api/v1/traces?n=5"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", path, ct)
		}
		env := decodeEnvelope(t, rec)
		if env.Error != nil {
			t.Fatalf("%s: unexpected error envelope: %+v", path, env.Error)
		}
		if len(env.Data) == 0 {
			t.Fatalf("%s: envelope has no data", path)
		}
	}
	var snap TopSnapshot
	env := decodeEnvelope(t, get(t, h, "/api/v1/top"))
	if err := json.Unmarshal(env.Data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Switches) != 1 || snap.Switches[0].Host != "h1" {
		t.Fatalf("top data = %+v", snap)
	}
}

// TestV1ErrorEnvelopePreservesStatus pins the error half: a handler's
// http.Error becomes {"error": {"code", "message"}} with the status kept.
func TestV1ErrorEnvelopePreservesStatus(t *testing.T) {
	o := testOptions()
	o.Rescale = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no such node", http.StatusConflict)
	})
	h := Handler(o)

	rec := get(t, h, "/api/v1/rescale")
	if rec.Code != http.StatusConflict {
		t.Fatalf("v1 error status = %d", rec.Code)
	}
	env := decodeEnvelope(t, rec)
	if env.Error == nil || env.Error.Code != http.StatusConflict || env.Error.Message != "no such node" {
		t.Fatalf("v1 error envelope = %+v", env.Error)
	}
	if len(env.Data) != 0 {
		t.Fatalf("error envelope carries data: %s", env.Data)
	}
}

// TestV1PlainTextSuccessBecomesJSONString covers legacy handlers that
// answer 200 with a non-JSON body: the wrapper must still produce a valid
// envelope.
func TestV1PlainTextSuccessBecomesJSONString(t *testing.T) {
	o := testOptions()
	o.Qos = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("all good"))
	})
	env := decodeEnvelope(t, get(t, Handler(o), "/api/v1/qos"))
	var s string
	if err := json.Unmarshal(env.Data, &s); err != nil || s != "all good" {
		t.Fatalf("data = %s (%v), want JSON string", env.Data, err)
	}
}

// TestV1EmptySuccessBodyBecomesNullData covers 200-with-empty-body
// handlers: the envelope's data must be explicit JSON null, not absent
// garbage.
func TestV1EmptySuccessBodyBecomesNullData(t *testing.T) {
	o := testOptions()
	o.Chaos = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	rec := get(t, Handler(o), "/api/v1/chaos")
	env := decodeEnvelope(t, rec)
	if string(env.Data) != "null" {
		t.Fatalf("data = %q, want null", env.Data)
	}
}

// TestNilHandlersDisableRoutes: unwired endpoints must 404, and so must the
// pre-versioning /api/<name> path of a wired one (each endpoint is mounted
// once).
func TestNilHandlersDisableRoutes(t *testing.T) {
	h := Handler(ServerOptions{Registry: NewRegistry()})
	for _, path := range []string{
		"/api/v1/traces",
		"/api/v1/top",
		"/api/v1/chaos",
		"/api/v1/rescale",
		"/api/v1/controlplane",
		"/api/v1/qos",
		"/api/metrics",
	} {
		if rec := get(t, h, path); rec.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestPrometheusSurfaceUnversioned: /metrics stays the text exposition.
func TestPrometheusSurfaceUnversioned(t *testing.T) {
	rec := get(t, Handler(testOptions()), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 3") {
		t.Fatalf("exposition missing counter:\n%s", rec.Body.String())
	}
}
