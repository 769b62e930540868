package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"semandaq/internal/detect"
	"semandaq/internal/relstore"
)

// FuzzDetectJSON holds the detect endpoint's hand-rolled encoder to
// encoding/json on adversarial table names and CFD ids — invalid UTF-8,
// U+2028/U+2029, NUL and other controls, <>&"\, a megabyte value: the
// response must always be valid JSON and decode to exactly what
// encoding/json gives for the equivalent map. It is compared after
// decoding, because vio's members deliberately run in tuple-id order.
// counts drives vio(t): one tuple per byte, its id advancing by 1-4 and its
// count the byte mod 5 (0 leaves it clean).
func FuzzDetectJSON(f *testing.F) {
	const unit = "<&>\u2028\u2029\"\\\x00\xff"
	huge := strings.Repeat(unit, 1<<20/len(unit)+1)[:1<<20]
	f.Add(huge, "phi1", huge[:1000], []byte{1, 0, 4}, int64(1<<20), 0.25)
	f.Add("customer", "phi1", "phi2", []byte{1, 2, 0, 3}, int64(9), 1.5)
	f.Fuzz(func(t *testing.T, table, id1, id2 string, counts []byte, version int64, durationMs float64) {
		if math.IsNaN(durationMs) || math.IsInf(durationMs, 0) {
			return // a duration is finite; encoding/json refuses the rest
		}
		d := &detect.Digest{
			Table:      table,
			TupleCount: len(counts),
			Version:    version,
			PerCFD: map[string]*detect.CFDStats{
				id1: {SingleTuple: len(counts), MultiTuple: len(id1), Groups: 1},
				id2: {SingleTuple: len(table) % 7, MultiTuple: len(id2), Groups: 2},
			},
		}
		id := relstore.TupleID(version & 0xffff)
		for _, c := range counts {
			id += relstore.TupleID(1 + c%4)
			n := int32(c % 5)
			d.IDs, d.Vio = append(d.IDs, id), append(d.Vio, n)
			if n > 0 {
				d.Dirty++
				d.Violations += int(n)
				d.MaxVio = max(d.MaxVio, int(n))
			}
		}
		body := appendDetectJSON(nil, d, durationMs)
		if !json.Valid(body) || body[len(body)-1] != '\n' {
			t.Fatalf("not one JSON value and a newline: %.300q", body)
		}

		perCFD := map[string]any{}
		for id, st := range d.PerCFD {
			perCFD[id] = map[string]int{"singleTuple": st.SingleTuple, "multiTuple": st.MultiTuple, "groups": st.Groups}
		}
		vio := map[string]int32{}
		for i, n := range d.Vio {
			if n != 0 {
				vio[strconv.FormatInt(int64(d.IDs[i]), 10)] = n
			}
		}
		wantBytes, err := json.Marshal(map[string]any{
			"dirty": d.Dirty, "durationMs": durationMs, "maxVio": d.MaxVio, "perCFD": perCFD,
			"table": d.Table, "tuples": d.TupleCount, "version": d.Version, "vio": vio, "violations": d.Violations,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got, want any
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantBytes, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded response differs from encoding/json's\n got: %.300v\nwant: %.300v", got, want)
		}
	})
}
