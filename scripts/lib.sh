# Sourced by scripts/figdiff.sh and scripts/checkmatrix.sh: how both
# build gridbench and which rows and presets they run. Not run on its
# own.

# The paper's rows: Figures 1-7 and the lease arms la, res and net.
paper_rows="1 2 3 4 5 6 7 la res net"

# build_gridbench CHECKOUT OUT: builds CHECKOUT's cmd/gridbench as OUT.
build_gridbench() {
	(cd "$1" && go build -o "$2" ./cmd/gridbench)
}

# rows_of GRIDBENCH: every row the binary lists. An unknown -fig is
# answered with every row's name (and exit code 2).
rows_of() {
	{ "$1" -fig '?' 2>&1 || true; } | awk '/^  /{print $1}'
}

# presets_of GRIDBENCH: every chaos preset the binary lists. An unknown
# plan is answered with every preset's name (and exit code 2).
presets_of() {
	{ "$1" -chaos '?' 2>&1 || true; } | sed -n 's/.*(have: \(.*\))$/\1/p' | tr -d ,
}
