package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"testing"

	"perspector/internal/fleet"
)

// fleetMessages makes an empty value of each request body the fleet
// endpoints decode.
var fleetMessages = []func() any{
	func() any { return new(fleet.JoinRequest) },
	func() any { return new(fleet.HeartbeatRequest) },
	func() any { return new(fleet.PullRequest) },
	func() any { return new(fleet.ResultPush) },
}

// decodeFleetBody runs body through the handlers' shared decode helper.
func decodeFleetBody(s *Server, body []byte, v any) bool {
	r := httptest.NewRequest("POST", "/api/v1/fleet/join", bytes.NewReader(body))
	return s.decodeFleet(httptest.NewRecorder(), r, v)
}

// FuzzFleetMessages feeds arbitrary bodies to the fleet decode helper as
// each wire message. No body may panic it, and a body that decodes must
// re-encode to a body that decodes to the same value.
func FuzzFleetMessages(f *testing.F) {
	for _, seed := range []string{
		`{"node_id":"w1","capacity":2,"rep_seq":3,"goarch":"amd64"}`,
		`{"node_id":"w1","queue_depth":1,"inflight":2,"instr_per_sec":1.5e7,"rep_seq":9}`,
		`{"node_id":"w1","max":4,"wait_millis":250,"rep_seq":0}`,
		`{"node_id":"w1","dispatch_id":7,"key":"k","at":"2023-01-02T03:04:05Z","instructions":40000,` +
			`"set":{"schema":1,"kind":"score","group":"all","config":{"instructions":40000,"samples":20,"seed":5},` +
			`"suites":[{"suite":"parsec","cluster":0.25,"trend":-0,"coverage":1e-300,"spread":0.5}]}}`,
		`{"node_id":"w1","dispatch_id":7,"error":{"stage":"simulate","message":"boom","canceled":true}}`,
		`{"NODE_ID":"\ud800é","node_id":"x"} trailing`,
		`{"set":null,"suites":[]}`,
		`{"capacity":1e400}`,
		`[]`, `null`, `{`, ``,
	} {
		for kind := range fleetMessages {
			f.Add(uint8(kind), []byte(seed))
		}
	}
	s := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		msg := fleetMessages[int(kind)%len(fleetMessages)]
		v := msg()
		if !decodeFleetBody(s, body, v) {
			return
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("decoded %T %+v does not encode: %v", v, v, err)
		}
		w := msg()
		if !decodeFleetBody(s, again, w) {
			t.Fatalf("re-encoded %T %s does not decode", v, again)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("%T round trip: %+v, re-decoded %+v (body %s)", v, v, w, again)
		}
	})
}
