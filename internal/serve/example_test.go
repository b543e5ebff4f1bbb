package serve_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// ExampleNew answers HTTP queries from a baseline's (SWeG's) compressed
// model: any artifact compiles into the query engine, no SLUGGER
// required.
func ExampleNew() {
	g := graph.Caveman(6, 10, 8, 42)
	art, err := slug.Get("sweg").Summarize(context.Background(), g, slug.WithIterations(10), slug.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	cs, err := art.Queryable()
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(cs).WithAlgorithm(art.Algorithm()).Handler())
	defer ts.Close()

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		return body
	}
	fmt.Printf("/neighbors?v=0: %s", get("/neighbors?v=0"))
	fmt.Printf("/hasedge?u=0&v=1: %s", get("/hasedge?u=0&v=1"))
	// Output:
	// /neighbors?v=0: {"v":0,"degree":10,"neighbors":[1,2,3,4,5,6,7,8,9,15]}
	// /hasedge?u=0&v=1: {"exists":true,"u":0,"v":1}
}
