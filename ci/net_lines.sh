#!/usr/bin/env bash
# Lines a change adds and removes, split into non-test and test lines.
#
# Counts Rust, TOML and YAML files only (Markdown, Cargo.lock and scripts
# are left out), blank and comment lines included. A line is a test line
# when its file sits under a tests/ directory, when its file is a module
# that its parent declares under #[cfg(test)], or when it lies inside a
# #[cfg(test)] item: its doc comments, the attribute, the attributes and
# comments after it, and the item itself up to its matching closing brace
# (or to the `;` or `,` that ends a declaration or field). Removed lines are classified in
# the base version of their file, added lines in the new one.
#
# Usage: ci/net_lines.sh <base> [<head>]
#   <head> defaults to the working tree; stage new files (git add -A) so
#   that git sees them.
#
# Prints one line per changed file, then the non-test and test totals.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base> [<head>]" >&2
    exit 2
fi
base=$1
head=${2:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The content of <path> at <rev>, or in the working tree for an empty rev;
# nothing when the file does not exist there.
show() {
    if [ -z "$1" ]; then
        cat "$2" 2>/dev/null || true
    else
        git show "$1:$2" 2>/dev/null || true
    fi
}

# One line per line of the file: 1 inside a #[cfg(test)] item, else 0.
mask() {
    awk '
        # Code of a line without its comment and the contents of its string
        # and character literals, whose brackets do not count. Raw strings
        # with hashes go first: they hold quotes and backslashes that
        # escape nothing.
        function code(s) {
            gsub(/r#+"([^"]|"[^#])*"#+/, "\"\"", s)
            gsub(/"(\\.|[^"\\])*"/, "\"\"", s)
            gsub(/'"'"'(\\.|[^'"'"'\\])'"'"'/, "x", s)
            sub(/\/\/.*/, "", s)
            return s
        }
        # Doc comments wait for the line after them: they belong to a
        # #[cfg(test)] item that follows.
        function flush(flag) { for (; pending > 0; pending--) print flag }
        {
            line = code($0)
            if (!inside) {
                if ($0 ~ /^[[:space:]]*\/\/\/([^\/]|$)/) { pending++; next }
                if (line !~ /^[[:space:]]*#\[cfg\(test\)\]/) { flush(0); print 0; next }
                flush(1)
                inside = 1; kind = ""; depth = 0
                sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
            }
            # Attributes and comments before the item belong to it.
            if (kind == "" && line ~ /^[[:space:]]*(#\[.*)?$/) { print 1; next }
            if (kind == "") {
                keyword = "^[[:space:]]*(pub(\\([^)]*\\))?[[:space:]]+)?(fn|mod|impl|struct|enum|use|const|static|type|trait|unsafe|async|extern|macro_rules!)[^A-Za-z0-9_]"
                kind = (line ~ keyword) ? "item" : "field"
            }
            ended = 0; outside = 0
            for (i = 1; i <= length(line) && !ended; i++) {
                c = substr(line, i, 1)
                if (c == "(" || c == "[" || c == "{") depth++
                else if (c == ")" || c == "]" || c == "}") {
                    depth--
                    if (depth < 0) { ended = 1; outside = 1 }
                    else if (depth == 0 && c == "}" && kind == "item") ended = 1
                } else if (depth == 0 && (c == ";" || (c == "," && kind == "field"))) ended = 1
            }
            print (outside ? 0 : 1)
            if (ended) inside = 0
        }
        END { flush(0) }' "$1"
}

# 1 when <path> at <rev> is a Rust module whose parent module declares it
# as `#[cfg(test)] mod <name>;`, else 0.
test_module() {
    local dir=${2%/*} name
    name=$(basename "$2" .rs)
    if [ "$name" = mod ]; then
        name=${dir##*/}
        dir=${dir%/*}
    fi
    for parent in "$dir/lib.rs" "$dir/main.rs" "$dir/mod.rs" "$dir.rs"; do
        show "$1" "$parent"
    done | awk -v name="$name" '
        $0 ~ "^[[:space:]]*(pub(\\([^)]*\\))?[[:space:]]+)?mod " name ";" && cfg { found = 1 }
        { cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) }
        $0 ~ "#\\[cfg\\(test\\)\\][[:space:]]*mod " name ";" { found = 1 }
        END { print found + 0 }'
}

git diff --name-only --no-renames "$base" ${head:+"$head"} -- \
    '*.rs' '*.toml' '*.yml' '*.yaml' ':!Cargo.lock' ':!**/Cargo.lock' |
while IFS= read -r path; do
    show "$base" "$path" > "$work/old"
    show "$head" "$path" > "$work/new"
    mask "$work/old" > "$work/old.mask"
    mask "$work/new" > "$work/new.mask"
    case "/$path" in
        */tests/*) all=1 ;;
        *.rs) all=$(test_module "$head" "$path") ;;
        *) all=0 ;;
    esac
    git diff -U0 --no-color --no-ext-diff --no-renames "$base" ${head:+"$head"} -- "$path" |
        awk -v all="$all" -v path="$path" -v om="$work/old.mask" -v nm="$work/new.mask" '
            BEGIN {
                while ((getline m < om) > 0) old[++no] = m
                while ((getline m < nm) > 0) new[++nn] = m
            }
            /^@@ / {
                hunk = 1
                split(substr($2, 2), a, ","); o = a[1] + 0
                split(substr($3, 2), b, ","); n = b[1] + 0
                next
            }
            !hunk { next }
            /^-/ { if (all || old[o]) tr++; else nr++; o++ }
            /^\+/ { if (all || new[n]) ta++; else na++; n++ }
            END { printf "%s %d %d %d %d\n", path, na, nr, ta, tr }'
done |
awk '
    {
        printf "%-48s non-test +%d -%d, test +%d -%d\n", $1, $2, $3, $4, $5
        na += $2; nr += $3; ta += $4; tr += $5
    }
    END {
        printf "non-test: +%d -%d, net %+d\n", na, nr, na - nr
        printf "test:     +%d -%d, net %+d\n", ta, tr, ta - tr
    }'
