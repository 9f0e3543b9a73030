// Profiler example: find the energy-hungry method in a multi-method program,
// exactly as the paper's Fig. 4 profiler view does — every method gets an
// entry and an exit probe, each probe reads the RAPL counters, and each
// execution of each method is recorded separately into result.txt.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"jepo/internal/core"
)

const source = `
package weka.demo;

public class Pipeline {
	static double parse(int rows) {
		double checksum = 0.0;
		for (int i = 0; i < rows; i++) {
			checksum += i * 0.5;
		}
		return checksum;
	}

	static int[] normalize(int rows) {
		int[] out = new int[rows];
		for (int i = 0; i < rows; i++) {
			out[i] = i % 7;
		}
		return out;
	}

	static int train(int[] feats, int passes) {
		int acc = 0;
		for (int p = 0; p < passes; p++) {
			for (int i = 0; i < feats.length; i++) {
				acc += feats[i] * feats[i];
			}
		}
		return acc;
	}

	public static void main(String[] args) {
		double c = parse(2000);
		int[] feats = normalize(2000);
		int model = train(feats, 5);
		model = train(feats, 5);
		System.out.println(c + " " + model);
	}
}
`

func main() {
	res, err := core.Profile(context.Background(), core.Project{"Pipeline.java": source}, core.ProfileConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("program output:", res.Stdout)
	fmt.Println("--- JEPO profiler view (Fig. 4) ---")
	fmt.Print(res.View())

	// Per-execution records, as stored in result.txt: train ran twice, so it
	// has two rows.
	fmt.Println("--- per-execution records ---")
	for _, r := range res.Profiler.Records() {
		fmt.Printf("%-28s exec %d  %10v  %12v\n", r.Method, r.Seq, r.Elapsed, r.Package)
	}
	if err := res.Profiler.WriteResultTxt("result.txt"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote result.txt")
	os.Remove("result.txt") // keep the example rerunnable without litter
}
