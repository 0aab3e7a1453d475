package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzEndpoints are the POST endpoints FuzzServeRequest feeds; the first
// fuzz argument picks one.
var fuzzEndpoints = [...]string{"/compile", "/run", "/runmany", "/resume", "/lint"}

// FuzzServeRequest sends arbitrary bodies to every JSON endpoint. No request
// may panic, every answer outside 2xx is the {"error":{kind,msg}} envelope,
// and no machine stays borrowed once a request is answered. The server's
// compile and run deadlines are tiny and its source limit small, so a body
// that parses costs little whatever it asks for. The seeds, at least one
// for each endpoint, are in testdata/fuzz/FuzzServeRequest.
func FuzzServeRequest(f *testing.F) {
	s := New(Config{
		CacheBytes:      8 << 20,
		RunCacheEntries: 64,
		CompileTimeout:  200 * time.Millisecond,
		RunTimeout:      20 * time.Millisecond,
		MaxSourceBytes:  2048,
		SnapshotBytes:   4 << 20,
	})
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code < 200 || w.Code > 299 {
			var env struct {
				Error *ErrorBody `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil ||
				env.Error.Kind == "" || env.Error.Msg == "" {
				t.Fatalf("%s answered %d without the error envelope: %q", path, w.Code, w.Body.Bytes())
			}
		}
		if n := s.Metrics().MachinesInUse.Value(); n != 0 {
			t.Fatalf("%s left %d machines in use", path, n)
		}
	})
}
