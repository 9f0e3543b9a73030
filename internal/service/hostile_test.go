package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"jepo/internal/minijava/interp"
	"jepo/internal/minijava/parser"
)

// TestHostileInputKeepsServing posts programs built to exhaust the Go stack,
// each to its own session, on both engines: a 1 MiB file of nested
// parentheses, a 1 MiB + chain, unbounded recursion, and recursion through
// the deepest expression the parser accepts (the worst case for the
// tree-walker's stack). The parser turns the first two away, the call-depth
// bound the other two, and a benign session analyzed meanwhile gets its
// normal bytes. The test runs under a 256 MB stack cap: the parser's and
// the interpreter's bounds must keep every run far below it, and a daemon
// without them dies here of a fatal stack overflow instead of hanging.
func TestHostileInputKeepsServing(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 20))

	wrap := func(e string) string { return "class A { static int f() { return " + e + "; } }" }
	levels := (maxBodyBytes - len(wrap("")) - 1) / 2
	// f's body, its return and f(n + 1) take five levels; every g call
	// wrapped around it takes one more.
	deepest := func(gs int) string {
		return "class A { static int g(int x) { return x; } static int f(int n) { return " +
			strings.Repeat("g(", gs) + "f(n + 1)" + strings.Repeat(")", gs) +
			"; } public static void main(String[] a) { f(0); } }"
	}
	gs := parser.MaxDepth - 5
	if _, err := parser.Parse("A.java", deepest(gs+1)); err == nil {
		t.Fatal("the deepest-expression program is not at the parser's bound")
	}
	hostile := []struct {
		name, src, want string
		status          int
	}{
		{"nested parentheses", wrap(strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels)),
			fmt.Sprintf("nesting deeper than %d levels", parser.MaxDepth), http.StatusBadRequest},
		{"+ chain", wrap("1" + strings.Repeat("+1", levels)),
			fmt.Sprintf("nesting deeper than %d levels", parser.MaxDepth), http.StatusBadRequest},
		{"unbounded recursion",
			`class A { static int f(int n) { return f(n + 1); } public static void main(String[] a) { f(0); } }`,
			fmt.Sprintf("measurement disabled: interp: call depth of %d exceeded", interp.MaxCallDepth), http.StatusOK},
		{"recursion through the deepest expression", deepest(gs),
			fmt.Sprintf("measurement disabled: interp: call depth of %d exceeded", interp.MaxCallDepth), http.StatusOK},
	}
	for _, h := range hostile[:2] {
		if len(h.src) != maxBodyBytes {
			t.Fatalf("%s: %d bytes, want the %d-byte body cap", h.name, len(h.src), maxBodyBytes)
		}
	}

	// The benign session's bytes, from a service that never saw hostile
	// input.
	_, ref := newTestServer(t, Config{})
	status, want, err := analyzeHTTP(ref, workSrc, "")
	if err != nil || status != http.StatusOK {
		t.Fatalf("benign session: %d %s %v", status, want, err)
	}

	_, ts := newTestServer(t, Config{Slots: 2, MaxQueue: -1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			status, got, err := analyzeHTTP(ts, workSrc, "")
			if err != nil || status != http.StatusOK || got != want {
				t.Errorf("benign session analyzed beside hostile ones: %d %v\n%s\nwant:\n%s", status, err, got, want)
			}
		}
	}()
	for _, eng := range []string{"vm", "ast"} {
		for _, h := range hostile {
			status, body, err := analyzeHTTP(ts, h.src, `{"engine":"`+eng+`"}`)
			if err != nil || status != h.status || !strings.Contains(body, h.want) {
				t.Errorf("%s/%s: %d %.200s %v, want %d and %q", eng, h.name, status, body, err, h.status, h.want)
			}
		}
	}
	wg.Wait()
}

// analyzeHTTP puts src in a new session of ts and analyzes it with the
// given request body, returning the analyze response's status and body.
func analyzeHTTP(ts *httptest.Server, src, req string) (int, string, error) {
	call := func(method, url, body string) (int, string, error) {
		r, err := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}
	status, body, err := call("POST", "/v1/sessions", "")
	if err != nil || status != http.StatusCreated {
		return status, body, fmt.Errorf("create session: %v", err)
	}
	var sess struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &sess); err != nil {
		return 0, body, err
	}
	if status, body, err := call("PUT", "/v1/sessions/"+sess.ID+"/files/A.java", src); err != nil || status != http.StatusNoContent {
		return status, body, fmt.Errorf("put: %v", err)
	}
	return call("POST", "/v1/sessions/"+sess.ID+"/analyze", req)
}
