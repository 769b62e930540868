// Web API: Semandaq as a service, the paper's multi-tier deployment. This
// example embeds the HTTP data-quality server, then drives it as a client
// would: upload a CSV, register CFDs, detect, audit, repair and review —
// all over JSON/HTTP.
//
//	go run ./examples/webapi
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"semandaq"
	"semandaq/internal/server"
)

const customers = `NAME,CNT,CITY,ZIP,STR,CC,AC
Mike,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Rick,UK,Edinburgh,EH2 4SD,Mayfield,44,131
Nora,UK,Edinburgh,EH2 4SD,Mayfeild,44,131
Joe,US,New York,01202,Mtn Ave,44,908
Ben,US,Chicago,60601,Wacker,1,312
`

func main() {
	// Embed the server (a real deployment runs cmd/semandaq-server).
	ts := httptest.NewServer(server.New(semandaq.New()).Handler())
	defer ts.Close()
	fmt.Println("data quality server at", ts.URL)

	post := func(path, body string) map[string]any { return call("POST", ts.URL+path, body) }
	get := func(path string) map[string]any { return call("GET", ts.URL+path, "") }

	// Upload the relation.
	out := post("/api/tables/customer", customers)
	fmt.Printf("loaded table %v with %v tuples\n", out["table"], out["tuples"])

	// Register CFDs; the server runs the satisfiability check.
	rules, _ := json.Marshal(map[string]string{"text": `
customer: [CNT=UK, ZIP=_] -> [STR=_]
customer: [CC=44] -> [CNT=UK]`})
	out = post("/api/cfds/customer", string(rules))
	fmt.Printf("registered CFDs: %v\n", out["registered"])

	// Detect with the SQL technique.
	out = post("/api/detect/customer", "")
	fmt.Printf("detection: dirty=%v violations=%v\n", out["dirty"], out["violations"])

	// The sharded multi-core detector returns the identical report.
	out = post("/api/detect/customer?engine=parallel&workers=4", "")
	fmt.Printf("parallel detection: dirty=%v violations=%v\n", out["dirty"], out["violations"])

	// Peek at the generated SQL.
	out = get("/api/detect/customer/sql")
	fmt.Println("first generated query:")
	fmt.Println(out["sql"].([]any)[0])

	// Quality report.
	out = get("/api/audit/customer")
	fmt.Printf("\naudit: verified=%v probably=%v arguably=%v dirty=%v\n",
		out["verifiedClean"], out["probablyClean"], out["arguablyClean"], out["dirty"])

	// Drill-down, as the data explorer UI would.
	out = get("/api/explore/customer/lhs?cfd=phi1&pattern=0")
	fmt.Printf("explore phi1 groups: %v\n", out["groups"])

	// Repair: compute candidate, inspect, apply.
	out = post("/api/repair/customer", "")
	fmt.Printf("\nrepair candidate: converged=%v modifications=%d\n",
		out["converged"], len(out["modifications"].([]any)))
	for _, m := range out["modifications"].([]any) {
		mm := m.(map[string]any)
		fmt.Printf("  tuple %v %v: %v -> %v (%v)\n",
			mm["tuple"], mm["attr"], mm["old"], mm["new"], mm["cfd"])
	}
	out = post("/api/repair/customer/apply", "")
	fmt.Printf("applied %v modifications\n", out["applied"])

	// Confirm clean. The blocking payload now reports durationMs too.
	out = post("/api/detect/customer", "")
	fmt.Printf("after repair: dirty=%v (%.2fms)\n", out["dirty"], out["durationMs"])

	// Streaming detection: ?stream=1 returns NDJSON, one violation per
	// line in the report's canonical order — what `curl -N` would show —
	// read from the report the detect above cached. The table is clean
	// now, so only the terminal done line arrives.
	resp, err := http.Get(ts.URL + "/api/detect/customer?stream=1")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\nstreaming detection (NDJSON):")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Println("  ", sc.Text())
	}
}

func call(method, url, body string) map[string]any {
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s %s: %d: %v", method, url, resp.StatusCode, out)
	}
	return out
}
