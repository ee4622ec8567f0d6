#!/bin/sh
# bench.sh — run the repository benchmark suite and emit a machine-readable
# BENCH_<n>.json artifact so the performance trajectory is tracked across
# changes. BENCH_0.json is the pre-optimization baseline; BENCH_1.json the
# post-optimization state; later runs append BENCH_2.json, BENCH_3.json, ...
#
# Every benchmark runs 5 times (-count 5) at GOMAXPROCS 1 and at nproc
# (-cpu 1,<nproc>; Go suffixes the name with -<procs> when procs != 1). The
# artifact records, per benchmark name, the sample count, the median ns/op
# (ns_per_op) with the min and max (ns_min, ns_max), and the median B/op and
# allocs/op. A difference between two artifacts inside the other's
# [ns_min, ns_max] is not resolved from noise. (BENCH_0..3 hold one sample
# at one GOMAXPROCS each.)
#
# Usage: scripts/bench.sh [index]
#   index        numeric suffix for BENCH_<index>.json (default: next free)
#
# Environment:
#   BENCH_FILTER regex of benchmarks to run (default: .)
#   BENCH_TIME   value for -benchtime (default: 1x)
set -eu
cd "$(dirname "$0")/.."

idx="${1:-}"
if [ -z "$idx" ]; then
	idx=0
	while [ -e "BENCH_${idx}.json" ]; do idx=$((idx + 1)); done
fi
out="BENCH_${idx}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
cpus=1
[ "$nproc" -gt 1 ] && cpus="1,$nproc"
go test -run '^$' -bench "${BENCH_FILTER:-.}" -benchtime "${BENCH_TIME:-1x}" \
	-count 5 -cpu "$cpus" -benchmem ./... | tee "$tmp"

# Environment metadata embedded in the artifact: numbers are only
# comparable across runs made in the same environment, so record it.
go_version="$(go version | sed 's/^go version //')"
cpu_model="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v go_version="$go_version" -v cpus="$cpus" -v cpu_model="$cpu_model" '
# sortv sorts v[1..k] in place; median returns its middle value.
function sortv(v, k,    i, j, x) {
	for (i = 2; i <= k; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
}
function median(v, k) {
	sortv(v, k)
	return (k % 2) ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
}
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
	# Wire-layer benchmarks carry their encoding in the name; surface the
	# set covered by this run in the metadata block.
	if ($1 ~ /\/json/) encodings["json"] = 1
	if ($1 ~ /\/binary/ || $1 ~ /^BenchmarkBroadcast\//) encodings["binary"] = 1
	if ($1 ~ /SerialJSON/) encodings["json"] = 1
	name = $1; ns = ""; bytes = ""; allocs = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	if (!(name in count)) order[++n] = name
	k = ++count[name]
	nsv[name, k] = ns
	if (bytes != "") bv[name, k] = bytes
	if (allocs != "") av[name, k] = allocs
}
END {
	if (cpu == "" && cpu_model != "") cpu = cpu_model
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"go_version\": \"%s\",\n", go_version
	printf "  \"gomaxprocs\": [%s],\n", cpus
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	enc = ""
	if ("json" in encodings) enc = "\"json\""
	if ("binary" in encodings) enc = enc (enc == "" ? "" : ", ") "\"binary\""
	printf "  \"wire_encodings\": [%s],\n", enc
	printf "  \"benchmarks\": {\n"
	for (b = 1; b <= n; b++) {
		name = order[b]; k = count[name]
		for (i = 1; i <= k; i++) v[i] = nsv[name, i] + 0
		med = median(v, k)
		line = sprintf("    \"%s\": {\"samples\": %d, \"ns_per_op\": %.10g, \"ns_min\": %.10g, \"ns_max\": %.10g", name, k, med, v[1], v[k])
		if ((name, 1) in bv) {
			for (i = 1; i <= k; i++) v[i] = bv[name, i] + 0
			line = line sprintf(", \"bytes_per_op\": %.10g", median(v, k))
		}
		if ((name, 1) in av) {
			for (i = 1; i <= k; i++) v[i] = av[name, i] + 0
			line = line sprintf(", \"allocs_per_op\": %.10g", median(v, k))
		}
		printf "%s}%s\n", line, (b < n ? "," : "")
	}
	printf "  }\n}\n"
}' "$tmp" >"$out"

echo "bench: wrote $out"
