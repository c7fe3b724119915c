#!/usr/bin/env bash
# Dead public API gate.
#
# Lists every `pub` item (fn, struct, enum, const, static, trait, type,
# mod) and every `pub` named field declared under crates/*/src whose name
# is used nowhere outside its own crate, and compares that list with
# ci/unused_pub.allow.
#
# "Outside" is what compiles as another crate: the other workspace crates,
# the crate's own binaries (src/bin) and integration tests (tests/), the
# root tests/ and examples/, benchmark/src, and every doctest, the crate's
# own included. Comments do not count, except the code blocks of doc
# comments (doctests). The match is by whole word, so a name shared with
# something used elsewhere counts as used.
#
# Usage: ci/unused_pub.sh          check against the allowlist
#        ci/unused_pub.sh --list   print the current list
#
# Each allowlist line is `<file> <kind> <name> # <reason>`. The check
# fails on an unlisted item, on a listed item that is no longer in the
# list (shrink the allowlist), and on an entry without a reason.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=ci/unused_pub.allow
item='^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|const|static|trait|type|mod) [A-Za-z_][A-Za-z0-9_]*'
field='^[[:space:]]*pub [a-z_][a-z0-9_]*:'

corpus=$(mktemp -d)
trap 'rm -rf "$corpus"' EXIT

# Mirror every Rust file twice: code/ keeps its code and doctest lines,
# doc/ only its doctest lines.
while IFS= read -r file; do
    mkdir -p "$corpus/code/$(dirname "$file")" "$corpus/doc/$(dirname "$file")"
    awk -v doc="$corpus/doc/$file" '
        /^[[:space:]]*\/\// {
            text = $0
            sub(/^[[:space:]]*\/\/[\/!]?[[:space:]]?/, "", text)
            if (text ~ /^```/) { block = !block; next }
            if (block) { print text; print text > doc }
            next
        }
        { print }
    ' "$file" > "$corpus/code/$file"
    touch "$corpus/doc/$file"
done < <(find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort)

list() {
    local crate src other outside file kind name
    for src in crates/*/src; do
        crate=${src%/src}
        outside=("$corpus/code/tests" "$corpus/code/examples" "$corpus/code/benchmark/src"
            "$corpus/doc/$src")
        for other in crates/*; do
            [ "$other" = "$crate" ] || outside+=("$corpus/code/$other")
        done
        for other in "$src/bin" "$crate/tests"; do
            [ -d "$other" ] && outside+=("$corpus/code/$other")
        done
        {
            grep -rHoE --include='*.rs' --exclude-dir=bin "$item" "$src" |
                sed -E 's/^([^:]*):[[:space:]]*pub (const |async |unsafe )*([a-z]+) ([A-Za-z0-9_]+)$/\1 \3 \4/' || true
            grep -rHoE --include='*.rs' --exclude-dir=bin "$field" "$src" |
                sed -E 's/^([^:]*):[[:space:]]*pub ([a-z0-9_]+):$/\1 field \2/' || true
        } | while read -r file kind name; do
            grep -rqw -- "$name" "${outside[@]}" || echo "$file $kind $name"
        done
    done | sort -u
}

if [ "${1:-}" = "--list" ]; then
    list
    exit 0
fi

status=0
if grep -vE '^[^#]+ # .+$' "$allow" | grep -q .; then
    echo "::error::every line of $allow needs '<file> <kind> <name> # <reason>':"
    grep -vE '^[^#]+ # .+$' "$allow"
    status=1
fi
if ! diff -u <(sed -E 's/ # .*$//' "$allow" | sort -u) <(list); then
    echo "::error::public items used by nothing outside their crate changed (+ new, - gone)."
    echo "Narrow a new item to pub(crate), or list it with a reason in $allow;"
    echo "drop entries for items that are gone or now used."
    status=1
fi
exit $status
