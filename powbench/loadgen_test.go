package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestConnInFlight checks that requests written back to back on one
// connection are answered in order, and that a reply owed on a closed
// connection fails instead of being read from the next one.
func TestConnInFlight(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(r.URL.Path))
	}))
	defer srv.Close()
	c := &conn{addr: strings.TrimPrefix(srv.URL, "http://")}
	defer c.close()

	var owed []sent
	for _, p := range []string{"/a", "/b", "/c"} {
		owed = append(owed, c.send(http.MethodGet, p, nil))
	}
	for i, want := range []string{"/a", "/b", "/c"} {
		resp, body, err := c.recv(owed[i])
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("reply %d: status %v body %q err %v, want %q", i, resp, body, err, want)
		}
	}

	lost := c.send(http.MethodGet, "/lost", nil)
	c.close()
	next := c.send(http.MethodGet, "/next", nil)
	if _, _, err := c.recv(lost); !errors.Is(err, errConnLost) {
		t.Fatalf("reply owed on a closed connection: err %v, want errConnLost", err)
	}
	if _, body, err := c.recv(next); err != nil || string(body) != "/next" {
		t.Fatalf("reply on the new connection: body %q err %v", body, err)
	}
}
