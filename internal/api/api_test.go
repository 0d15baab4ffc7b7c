package api

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestRenderDecodeRoundTrip renders a request for every read and decodes
// it back: each entry's rendering and decoding must agree, since loadgen
// renders what dimsatd and the coordinator decode.
func TestRenderDecodeRoundTrip(t *testing.T) {
	sample := Args{Category: "Store", Root: "Store", Target: "Sale Region", From: []string{"City", "A&B<C>"},
		Max: 3, Constraint: `Store.Price<20 & Store.Country="Ca na"`, Provenance: true}
	want := map[string]Args{
		"schema":       {},
		"categories":   {},
		"matrix":       {},
		"sat":          {Category: "Store"},
		"explain":      {Category: "Store"},
		"frozen":       {Root: "Store"},
		"sources":      {Target: "Sale Region", Max: 3},
		"implies":      {Constraint: sample.Constraint, Provenance: true},
		"summarizable": {Target: "Sale Region", From: sample.From},
	}
	for _, op := range Reads {
		if Lookup(op.Name) != op || op.Path != "/"+op.Name {
			t.Errorf("%s: Lookup or Path does not follow the name", op.Name)
		}
		path, body := op.Render(sample)
		r := httptest.NewRequest(op.Method, path, strings.NewReader(body))
		got, err := op.Decode(r, r.Body)
		if err != nil {
			t.Fatalf("%s: decoding %s %s %s: %v", op.Name, op.Method, path, body, err)
		}
		if !reflect.DeepEqual(got, want[op.Name]) {
			t.Errorf("%s: decoded %+v, want %+v", op.Name, got, want[op.Name])
		}
	}
}

// TestDecodeRefusals pins the refusals both nodes answer with the same
// message.
func TestDecodeRefusals(t *testing.T) {
	for _, tc := range []struct {
		op         *Op
		path, body string
		want       string
	}{
		{Sat, "/sat", "", "missing category parameter"},
		{Frozen, "/frozen?root=", "", "missing root parameter"},
		{Sources, "/sources?max=2", "", "missing target parameter"},
		{Sources, "/sources?target=Country&max=0", "", "max must be a positive integer"},
		{Sources, "/sources?target=Country&max=4", "", "max exceeds the limit of 3"},
		{Implies, "/implies", "{", "invalid JSON: unexpected EOF"},
		{Implies, "/implies", `{"constraint":5}`, "invalid JSON: json: cannot unmarshal number into Go struct field impliesRequest.constraint of type string"},
		{Summarizable, "/summarizable", `{"from":"City"}`, "invalid JSON: json: cannot unmarshal string into Go struct field summarizableRequest.from of type []string"},
	} {
		r := httptest.NewRequest(tc.op.Method, tc.path, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		_, err := tc.op.Decode(r, r.Body)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s %s %s: error %v, want %q", tc.op.Method, tc.path, tc.body, err, tc.want)
			continue
		}
		if status := Refuse(w, err); status != 400 || w.Body.String() != `{"error":`+quote(tc.want)+"}\n" {
			t.Errorf("%s %s: Refuse wrote %d %s", tc.op.Method, tc.path, status, w.Body)
		}
	}
	// A body past the cap is a 413.
	r := httptest.NewRequest("POST", "/implies", strings.NewReader(`{"constraint":"`+strings.Repeat("x", 64)+`"}`))
	w := httptest.NewRecorder()
	_, err := ReadBody(w, r, 16)
	if status := Refuse(w, err); status != 413 || w.Body.String() != `{"error":"request body exceeds 16 bytes"}`+"\n" {
		t.Errorf("over-cap body: Refuse wrote %d %s", status, w.Body)
	}
}

func quote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}
