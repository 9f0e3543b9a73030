package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func do(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func createHTTPSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/v1/sessions", "", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// TestSessionIDsUnguessableAndUnlisted: two sessions get distinct
// 32-digit hex IDs (128 random bits), and no route lists the open sessions,
// so a client reaches only the sessions whose IDs it was handed.
func TestSessionIDsUnguessableAndUnlisted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hexID := regexp.MustCompile(`^[0-9a-f]{32}$`)
	a, b := createHTTPSession(t, ts), createHTTPSession(t, ts)
	for _, id := range []string{a, b} {
		if !hexID.MatchString(id) {
			t.Errorf("session ID %q is not 32 lowercase hex digits", id)
		}
	}
	if a == b {
		t.Errorf("two sessions share the ID %q", a)
	}
	if resp, body := do(t, "GET", ts.URL+"/v1/sessions", "", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sessions = %d %q, want 405", resp.StatusCode, body)
	}
}

// TestHTTPAnalyzeRaw is the serve gate's identity contract in miniature:
// the raw response body equals the CLI rendering, byte for byte.
func TestHTTPAnalyzeRaw(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	id := createHTTPSession(t, ts)
	resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	s, err := svc.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Analyze(context.Background(), Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body != direct.Output {
		t.Errorf("HTTP raw body diverges from service output:\n--- http ---\n%s\n--- direct ---\n%s", body, direct.Output)
	}
}

// TestHTTPSSE asserts the streaming mode: progress events precede exactly
// one result event whose output matches the raw mode.
func TestHTTPSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createHTTPSession(t, ts)
	if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+id+"/analyze", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var stages []string
	var resultOutput string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress payload %q: %v", data, err)
				}
				stages = append(stages, ev.Stage)
			}
			if event == "result" {
				var res struct {
					Output string `json:"output"`
				}
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					t.Fatalf("bad result payload: %v", err)
				}
				resultOutput = res.Output
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(stages) < 3 || stages[0] != "queued" || stages[1] != "running" {
		t.Errorf("SSE stages = %v", stages)
	}
	if resultOutput == "" {
		t.Fatal("no result event received")
	}
	// The streamed result matches the raw mode byte for byte.
	if _, raw := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil); raw != resultOutput {
		t.Error("SSE result output diverges from raw mode")
	}
}

func TestHTTPTable2Raw(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := do(t, "POST", ts.URL+"/v1/tables/2", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table 2: %d %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "=== Table II: WEKA classifier metrics ===\n") {
		t.Errorf("table 2 body missing header:\n%.80s", body)
	}
	if resp, _ := do(t, "POST", ts.URL+"/v1/tables/9", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("table 9: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/nope/analyze", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	id := createHTTPSession(t, ts)
	// Empty session: analyze is a 400.
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty session analyze: status %d, want 400", resp.StatusCode)
	}
	// Malformed request body.
	if resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "{not json", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", resp.StatusCode)
	}
	// Delete, then the session is gone.
	if resp, _ := do(t, "DELETE", ts.URL+"/v1/sessions/"+id, "", nil); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete session: status %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/files", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("files of deleted session: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPBodyTooLarge asserts bodies over maxBodyBytes are refused with 413
// on both read paths (file upload and request JSON), and that the refused
// upload leaves the session serving.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createHTTPSession(t, ts)
	files := ts.URL + "/v1/sessions/" + id + "/files/"
	if resp, body := do(t, "PUT", files+"Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}
	big := strings.Repeat(" ", maxBodyBytes+1)
	if resp, body := do(t, "PUT", files+"Big.java", big, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized file: status %d %s, want 413", resp.StatusCode, body)
	}
	if resp, body := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", big, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request body: status %d %s, want 413", resp.StatusCode, body)
	}
	if resp, body := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("analyze after refused upload: status %d %s, want 200", resp.StatusCode, body)
	}
}

// TestHTTPSaturated asserts the gate's shed path surfaces as 503.
func TestHTTPSaturated(t *testing.T) {
	svc, ts := newTestServer(t, Config{Slots: 1, MaxQueue: 0})
	id := createHTTPSession(t, ts)
	if resp, body := do(t, "PUT", ts.URL+"/v1/sessions/"+id+"/files/Work.java", workSrc, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put file: %d %s", resp.StatusCode, body)
	}
	release, err := svc.gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := do(t, "POST", ts.URL+"/v1/sessions/"+id+"/analyze", "", nil)
	release()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated analyze: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := do(t, "GET", ts.URL+"/v1/stats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Gate     map[string]int `json:"gate"`
		Cache    string         `json:"cache"`
		Sessions int            `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache == "" {
		t.Error("stats missing cache line")
	}
}
