package check_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"morc/internal/cluster"
	"morc/internal/server"
)

// TestAdmissionRejectsRemovedKnobs pins that specs naming fields the
// job API no longer has are refused at submit with a 400 that names the
// field, by a single morcd and by a cluster coordinator alike, instead
// of being accepted and failing later inside a worker.
func TestAdmissionRejectsRemovedKnobs(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	direct := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		direct.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	coord := startCheckCoordinator(t, cluster.Config{})

	cases := []struct{ body, field string }{
		{`{"workload":"gcc","parallelism":2}`, "parallelism"},
		{`{"workload":"gcc","config":{"LLCBanks":3}}`, "LLCBanks"},
		{`{"workload":"gcc","config":{"Parallelism":2}}`, "Parallelism"},
	}
	for _, target := range []struct{ name, url string }{
		{"morcd", direct.URL},
		{"coordinator", coord.URL},
	} {
		for _, c := range cases {
			t.Run(target.name+"/"+c.field, func(t *testing.T) {
				resp, err := http.Post(target.url+"/v1/jobs", "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400 (body %s)", c.body, resp.StatusCode, body)
				}
				var apiErr struct{ Error string }
				if err := json.Unmarshal(body, &apiErr); err != nil {
					t.Fatalf("%s: error body %s: %v", c.body, body, err)
				}
				if !strings.Contains(apiErr.Error, `"`+c.field+`"`) {
					t.Errorf("%s: error %q does not name field %q", c.body, apiErr.Error, c.field)
				}
			})
		}
	}
}
