package chaos

import (
	"encoding/json"
	"net/http"
)

// Handler exposes the engine over HTTP, mounted by the cluster's
// observability endpoint at /api/v1/chaos:
//
//	POST  a JSON Spec to inject a fault
//	GET   the applied-injection record as JSON
//
// This is what `typhoon-ctl chaos ...` talks to.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(e.Injections())
		case http.MethodPost:
			var s Spec
			if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
				http.Error(w, "chaos: bad spec: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := e.Apply(s); err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]string{"applied": s.String()})
		default:
			http.Error(w, "chaos: use GET or POST", http.StatusMethodNotAllowed)
		}
	})
}
