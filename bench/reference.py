"""Reference task: fixed pure-Python work that imports nothing from eqhom.

``run.py`` times this task in a fresh process before and after each run
of the real command, so that both see the same state of the machine;
the end-to-end times are reported as multiples of the reference's time
around each run.
The work mixes what eqhom spends its time on: tuples hashed into dicts,
rewriting to normal form with a memo, and recursion a few hundred deep.
It never changes with the workload, the seed or the code under test.

Run as ``python3 bench/reference.py``; prints the number of normal forms
it found, which must be 6 (the order of S3).
"""

import sys

RULES = {("a", "a", "a"): (), ("b", "b"): (), ("b", "a"): ("a", "a", "b")}
WIDTH = max(len(lhs) for lhs in RULES)
REPEAT = 4


def reduce_word(word: tuple, memo: dict) -> tuple:
    found = memo.get(word)
    if found is not None:
        return found
    out = word
    for i in range(len(word)):
        for k in range(2, WIDTH + 1):
            rhs = RULES.get(word[i:i + k])
            if rhs is not None:
                out = reduce_word(word[:i] + rhs + word[i + k:], memo)
                break
        else:
            continue
        break
    memo[word] = out
    return out


def depth(n: int) -> int:
    return 0 if n == 0 else 1 + depth(n - 1)


def main() -> int:
    normal_forms = set()
    for _ in range(REPEAT):
        words = [()]
        for _ in range(14):
            memo: dict = {}
            words = [w + (x,) for w in words for x in "ab"][:6000]
            for w in words:
                normal_forms.add(reduce_word(w, memo))
            words.sort(key=lambda w: (reduce_word(w, memo), w))
            depth(400)
    print(len(normal_forms))
    return 0 if len(normal_forms) == 6 else 1


if __name__ == "__main__":
    sys.exit(main())
