.PHONY: all build test bench-smoke bench-micro bench-bnb bench-service \
	bench-profile bench-colgen bench-diff doc check loc clean

all: build

build:
	dune build

test: build
	dune runtest

# Fast end-to-end smoke of the parallel bench harness: Figure 3 only,
# quick scale, two worker domains, deterministic work clock (the default,
# so the tables are reproducible byte for byte).
bench-smoke: build
	dune exec bench/main.exe -- --quick --figures 3 --jobs 2 \
	  --no-ablations --no-micro --no-bnb --no-service --no-profile \
	  --no-colgen

# Deterministic simplex micro bench; writes BENCH_simplex.json (per-case
# iterations, pivots, work-clock ticks, wall time) and exits nonzero when
# the emitted file fails validation, so CI catches a malformed bench file.
bench-micro: build
	dune exec bench/main.exe -- --no-figures --no-ablations --no-bnb \
	  --no-service --no-profile --no-colgen

# Parallel branch-and-bound gate: solves the same contended cΣ search at
# jobs 1, 2 and 4 on the deterministic work clock, fails if any level's
# (status, objective, bound, nodes, iters, ticks) differs from jobs=1 or
# (on >= 4-core hosts) jobs=4 is < 2x faster, and writes BENCH_bnb.json.
bench-bnb: build
	dune exec bench/main.exe -- --no-figures --no-ablations --no-micro \
	  --no-service --no-profile --no-colgen

# Online service gate: serves one churn stream (arrivals + departures)
# at jobs 1, 2 and 4 on the deterministic work clock.  Fails if any
# decision, rung, schedule, migration, tick count or the revenue
# differs across jobs levels, if fewer than 30% of the arrivals depart
# inside the stream, if ignoring departures does not strictly lose
# admissions and revenue, if any rung (exact, greedy, budget, and
# priced on the dedicated pricing run) never fired, if the rounding
# ablation regresses (the Rounded chain must decide arrivals at the
# rounded rung, admit >= the greedy-only chain, spend <= the exact
# chain's ticks, and be byte-identical at jobs 1/2/4), or if any run's
# committed state fails the validator; writes BENCH_service.json
# (schema tvnep-bench-service/4, validated after writing — documents
# without the rounding comparison are rejected).
bench-service: build
	dune exec bench/main.exe -- --no-figures --no-ablations --no-micro \
	  --no-bnb --no-profile --no-colgen

# Profiling smoke gate: the contended cΣ solve with a span recorder
# attached, at jobs 1 and 4.  Fails if profiling perturbs the solve, the
# recorder is unbalanced, spans do not nest, per-phase self ticks do not
# sum to the solve's work ticks, an export fails to parse back, or the
# exported spans (domain tags zeroed) differ across jobs levels.
bench-profile: build
	dune exec bench/main.exe -- --no-figures --no-ablations --no-micro \
	  --no-bnb --no-service --no-colgen

# Column-generation gate: the path-form restricted master vs the arc-form
# LP on a ~10x substrate (9x10 grid, 8-vlink requests), deterministic
# work clock.  Fails unless the converged master matches the arc LP
# objective, costs strictly fewer work ticks, keeps its flow columns
# <= 20% of the arc form's, and is byte-identical at jobs 1 and 4;
# writes and validates BENCH_colgen.json.
bench-colgen: build
	dune exec bench/main.exe -- --no-figures --no-ablations --no-micro \
	  --no-bnb --no-service --no-profile

# Names every deterministic field of the BENCH_*.json files that moved
# against the committed copies (git HEAD), ignoring only the run-to-run
# measurements (host, wall_s, gc_minor_words, *_us keys); exits nonzero
# when any other field moved.  Run it after regenerating the files, e.g.
# after `make check`; it is not part of `make check` itself.
bench-diff:
	dune exec bench/bench_diff.exe

# API documentation via odoc, when the toolchain has it; a clean skip
# otherwise (the docs below are the odoc comments in the .mli files).
# Under `make check` this is a hard gate whenever odoc is installed: a
# doc-comment syntax error fails the build instead of rotting silently.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc && \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "odoc not installed; skipping HTML docs (the .mli files carry \
	the same documentation)"; \
	fi

check: build test doc bench-smoke bench-micro bench-bnb bench-service \
	bench-profile bench-colgen

# Source size: lines of .ml + .mli per top-level tree, the measure the
# code-deletion targets are stated in.
loc:
	@for d in lib test bench bin; do \
	  printf '%-6s %6d\n' $$d \
	    "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

clean:
	dune clean
