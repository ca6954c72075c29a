package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// specMatrices lists the matrices this package's tests build: each
// builder, the edits the tests make to them, every row of the
// table-driven tests, and the first random draws of the property tests.
func specMatrices() []Matrix {
	ms := append([]Matrix{smokeMatrix(), ksetSmokeMatrix(), kset256Matrix(), stubMatrix(),
		oracleMatrix(), churnWheelsMatrix(), lateWheelsMatrix(), misuseMatrix(),
		pairMatrix("two-wheels"), pairMatrix("add-s"), familyMatrix(), badFamilyMatrix(),
		familySweepMatrix(), cancelMatrix(), replayMatrix()}, goldenMatrices()...)
	ms = append(ms, markedMatrices()...)
	unknown, misspelled := refusedMatrices()
	ms = append(ms, unknown, misspelled)
	for _, level := range []string{"decisions", "full", "verbose"} {
		m := smokeMatrix()
		m.TraceLevel = level
		ms = append(ms, m)
	}
	for _, tc := range expansionCases {
		m := expansionBase()
		tc.mutate(&m)
		ms = append(ms, m)
	}
	for _, tc := range expansionErrors {
		m := stubMatrix()
		tc.mutate(&m)
		ms = append(ms, m)
	}

	// The oracle tests' edits of their builders.
	noScripts, settled, trusted, stab0 := oracleMatrix(), oracleMatrix(), oracleMatrix(), oracleMatrix()
	noScripts.OracleFamilies = nil
	settled.Patterns = settleCrashes
	trusted.Combos = []Combo{{Z: 1, Trusted: []int{1}}}
	stab0.Params = map[string]int64{"stab0": 1}
	settledPair, lateRoles := pairMatrix("two-wheels"), pairMatrix("add-s")
	settledPair.Patterns = settleCrashes
	lateRoles.OraclePairFamilies = pairFamilies()[1:]
	lateRoles.Params = map[string]int64{"perpetual": 1, "margin": 10_000}
	ms = append(ms, noScripts, settled, trusted, stab0, settledPair, lateRoles)
	for _, tc := range pairRejections {
		m := pairMatrix("two-wheels")
		tc.mutate(&m)
		ms = append(ms, m)
	}
	rows := shapeRows()
	for _, protocol := range Protocols() {
		for _, shape := range shapeColumns {
			ms = append(ms, shapeMatrix(rows[protocol], shape))
		}
	}

	kset, wheels := rand.New(rand.NewSource(2026)), rand.New(rand.NewSource(77))
	for range 3 {
		ms = append(ms, randomKSetMatrix(kset), randomWheelsMatrix(wheels))
	}
	// Builders added later go last, so the subtests above keep their
	// index-bearing names.
	return append(ms, regionMatrix())
}

// echoCell runs the cells of a matrix whose protocol the table lacks:
// it reports the cell it was given, so the report bytes show every
// dimension the matrix expanded into.
func echoCell(c *Cell, res *CellResult) {
	blob, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	res.Detail = string(blob)
}

// reportBytes runs m, with echoCell when its protocol is not built in,
// and renders its canonical report, or the error Run refused it with.
func reportBytes(m Matrix) string {
	opt := Options{Workers: 2}
	if protocolNamed(m.Protocol) == nil {
		opt.Runner = echoCell
	}
	r, err := Run(m, opt)
	if err != nil {
		return "error: " + err.Error()
	}
	blob, err := r.CanonicalJSON()
	if err != nil {
		return "error: " + err.Error()
	}
	return string(blob)
}

// TestReportSurvivesSpecRoundTrip: a matrix survives the JSON spec file
// with its report bytes. Every matrix the package's tests build is
// JSON-encoded and decoded with unknown fields disallowed, as sweepd
// reads a spec; the decoded matrix runs to the same canonical report as
// the original, or is refused with the same error.
func TestReportSurvivesSpecRoundTrip(t *testing.T) {
	ms := specMatrices()
	for i, m := range ms {
		t.Run(fmt.Sprintf("%d-%s", i, m.Name), func(t *testing.T) {
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(blob))
			dec.DisallowUnknownFields()
			var back Matrix
			if err := dec.Decode(&back); err != nil {
				t.Fatalf("spec %s does not decode: %v", blob, err)
			}
			want, got := reportBytes(m), reportBytes(back)
			if got != want {
				t.Errorf("spec %s: decoded matrix reports\n%s\nthe original\n%s", blob, got, want)
			}
		})
	}
}
