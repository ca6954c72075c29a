package ids

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// TestSetJSONRoundTrip: a set encodes as its ascending member list and
// decodes back to the same set, at every word-boundary size and for
// the members straddling each boundary.
func TestSetJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	var cases []Set
	for _, n := range wordBoundarySizes {
		for _, d := range []float64{0, 0.05, 0.5, 1} {
			cases = append(cases, denseRandomSet(r, n, d))
		}
		cases = append(cases, NewSet(ProcID(n)), FullSet(n))
	}
	cases = append(cases, NewSet(1, 64, 65, 128, 129, 192, 193, 256))
	for _, s := range cases {
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.ReplaceAll(strings.Trim(s.String(), "{}"), " ", "")
		if string(blob) != "["+want+"]" {
			t.Fatalf("Marshal(%s) = %s, want [%s]", s, blob, want)
		}
		var got Set
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatalf("Unmarshal(%s): %v", blob, err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip of %s gave %s", s, got)
		}
	}
}

// TestSetJSONInStructs: sets nested in structs, slices and maps encode
// through the same method, and null leaves a set unchanged.
func TestSetJSONInStructs(t *testing.T) {
	type hold struct {
		From, To Set
		ByProc   map[ProcID]Set
	}
	in := hold{From: NewSet(64), To: EmptySet(), ByProc: map[ProcID]Set{3: NewSet(65, 256)}}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"From":[64],"To":[],"ByProc":{"3":[65,256]}}`; string(blob) != want {
		t.Fatalf("Marshal = %s, want %s", blob, want)
	}
	var out hold
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !out.From.Equal(in.From) || !out.To.Equal(in.To) || !out.ByProc[3].Equal(in.ByProc[3]) {
		t.Fatalf("round trip gave %+v", out)
	}
	keep := NewSet(7)
	if err := json.Unmarshal([]byte("null"), &keep); err != nil || !keep.Equal(NewSet(7)) {
		t.Errorf("null: %v, set %s", err, keep)
	}
}

// TestSetJSONRejectsBadInput: out-of-range, repeated, unordered and
// non-list input fails loudly instead of decoding to some other set.
func TestSetJSONRejectsBadInput(t *testing.T) {
	for _, in := range []string{
		`[0]`, `[257]`, `[-1]`, `[3,3]`, `[5,2]`, `{}`, `"1,2"`, `[1.5]`, `[1,"2"]`,
	} {
		var s Set
		if err := json.Unmarshal([]byte(in), &s); err == nil {
			t.Errorf("Unmarshal(%s) accepted, gave %s", in, s)
		}
	}
}

// FuzzSetUnmarshalJSON: whatever decodes re-encodes to a list that
// decodes to the same set, and decoding never panics.
func FuzzSetUnmarshalJSON(f *testing.F) {
	for _, seed := range []string{`[]`, `[1]`, `[64,65]`, `[1,128,256]`, `[0]`, `[2,1]`, `null`, `{}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Set
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Set
		if err := json.Unmarshal(blob, &back); err != nil || !back.Equal(s) {
			t.Fatalf("%s decoded to %s, re-encoded as %s, which decodes to %s (%v)", data, s, blob, back, err)
		}
	})
}
