// HTTP surface. Handler mounts the Service as a REST+SSE API; cmd/jepod
// serves it and the package tests drive it in-process through httptest.
// Response modes, chosen by the Accept header:
//
//   - text/event-stream: progress events stream as SSE "progress" events
//     while the request runs; the final payload arrives as one "result"
//     event (JSON) or an "error" event. This is the streaming form.
//   - anything else: the response body is the request's Output bytes,
//     verbatim (Content-Type: text/plain). Byte-diffing this body against
//     the corresponding CLI stdout is the serve gate's identity check.
//
// Routes:
//
//	POST   /v1/sessions                   -> {"id": "s1"}
//	GET    /v1/sessions                   -> {"sessions": [...]}
//	DELETE /v1/sessions/{id}
//	PUT    /v1/sessions/{id}/files/{path...}   (body = source text)
//	GET    /v1/sessions/{id}/files        -> {"files": [...]}
//	POST   /v1/sessions/{id}/analyze      (body = Request JSON, optional)
//	POST   /v1/sessions/{id}/optimize
//	POST   /v1/sessions/{id}/profile
//	POST   /v1/tables/{n}?seed=N
//	GET    /v1/stats
//
// A saturated admission gate maps to 503 Service Unavailable; a body over
// maxBodyBytes maps to 413 Request Entity Too Large; a cancelled request maps
// to the client's disconnect (the handler just stops).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"jepo/internal/sched"
)

// DefaultTableSeed matches the experiment seed the CLI tables default to.
const DefaultTableSeed = 20200518

// maxBodyBytes caps every request body the daemon reads (source files and
// request JSON), so no client can make it buffer unbounded memory. 1 MiB is
// over 400 times the largest generated corpus file.
const maxBodyBytes = 1 << 20

// Handler mounts svc on a fresh mux.
func Handler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		s, err := svc.CreateSession()
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": s.ID()})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": svc.Sessions()})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, err := svc.Session(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.Close()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("PUT /v1/sessions/{id}/files/{path...}", func(w http.ResponseWriter, r *http.Request) {
		s, err := svc.Session(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			httpError(w, err)
			return
		}
		if err := s.PutFile(r.PathValue("path"), string(src)); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}/files/{path...}", func(w http.ResponseWriter, r *http.Request) {
		s, err := svc.Session(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		if err := s.DeleteFile(r.PathValue("path")); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/files", func(w http.ResponseWriter, r *http.Request) {
		s, err := svc.Session(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"files": s.Files()})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/analyze", func(w http.ResponseWriter, r *http.Request) {
		sessionOp(svc, w, r, func(s *Session, req Request, onEvent Progress) (payload, error) {
			res, err := s.Analyze(r.Context(), req, onEvent)
			if err != nil {
				return payload{}, err
			}
			return payload{Output: res.Output, Extra: map[string]any{
				"diagnostics": len(res.Report.Diags),
				"accepted":    len(res.Report.Accepted()),
			}}, nil
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/optimize", func(w http.ResponseWriter, r *http.Request) {
		sessionOp(svc, w, r, func(s *Session, req Request, onEvent Progress) (payload, error) {
			res, err := s.Optimize(r.Context(), req, onEvent)
			if err != nil {
				return payload{}, err
			}
			return payload{Output: res.Output, Extra: map[string]any{
				"changes": res.Changes,
				"files":   res.Files,
			}}, nil
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		sessionOp(svc, w, r, func(s *Session, req Request, onEvent Progress) (payload, error) {
			res, err := s.Profile(r.Context(), req, onEvent)
			if err != nil {
				return payload{}, err
			}
			return payload{Output: res.Output, Extra: map[string]any{
				"result_txt": res.ResultTxt,
			}}, nil
		})
	})
	mux.HandleFunc("POST /v1/tables/{n}", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.PathValue("n"))
		if err != nil {
			httpError(w, fmt.Errorf("bad table number: %w", err))
			return
		}
		seed := uint64(DefaultTableSeed)
		if v := r.URL.Query().Get("seed"); v != "" {
			seed, err = strconv.ParseUint(v, 10, 64)
			if err != nil {
				httpError(w, fmt.Errorf("bad seed: %w", err))
				return
			}
		}
		req, err := decodeRequest(w, r)
		if err != nil {
			httpError(w, err)
			return
		}
		respond(w, r, func(onEvent Progress) (payload, error) {
			res, terr := svc.Table(r.Context(), n, seed, req, onEvent)
			if terr != nil {
				return payload{}, terr
			}
			return payload{Output: res.Output}, nil
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		gs := svc.GateStats()
		cs := svc.Store().Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"gate": map[string]any{
				"admitted": gs.Admitted,
				"rejected": gs.Rejected,
				"waited":   gs.Waited,
				"in_use":   gs.InUse,
				"queued":   gs.Queued,
			},
			"cache":    cs.String(),
			"sessions": len(svc.Sessions()),
		})
	})
	return mux
}

// payload is one operation's response: the determinism-pinned Output plus
// structured extras for JSON/SSE clients.
type payload struct {
	Output string
	Extra  map[string]any
}

// sessionOp resolves the session, decodes the request body, and responds in
// the negotiated mode.
func sessionOp(svc *Service, w http.ResponseWriter, r *http.Request, op func(*Session, Request, Progress) (payload, error)) {
	s, err := svc.Session(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	respond(w, r, func(onEvent Progress) (payload, error) {
		return op(s, req, onEvent)
	})
}

// decodeRequest parses the optional JSON body into a Request.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return req, err
	}
	if len(body) == 0 {
		return req, nil
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

// respond runs op in the negotiated response mode: SSE when the client
// accepts text/event-stream, raw output bytes otherwise.
func respond(w http.ResponseWriter, r *http.Request, op func(Progress) (payload, error)) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		respondSSE(w, op)
		return
	}
	p, err := op(nil)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, p.Output)
}

// respondSSE streams progress events while op runs, then the result.
func respondSSE(w http.ResponseWriter, op func(Progress) (payload, error)) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(event string, data any) {
		b, err := json.Marshal(data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		if flusher != nil {
			flusher.Flush()
		}
	}
	p, err := op(func(ev Event) { send("progress", ev) })
	if err != nil {
		send("error", map[string]string{"error": err.Error()})
		return
	}
	body := map[string]any{"output": p.Output}
	for k, v := range p.Extra {
		body[k] = v
	}
	send("result", body)
}

// httpError maps service errors to status codes.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNoSession):
		status = http.StatusNotFound
	case errors.Is(err, sched.ErrSaturated):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusGone
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(b)
	w.Write([]byte("\n"))
}
