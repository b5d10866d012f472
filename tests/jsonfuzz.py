"""Mutations of JSON documents for the reader fuzz tests: drop, retype, duplicate, shift."""
import copy

from hypothesis import strategies as st

FUZZ_OPS = ("drop", "retype", "duplicate", "shift")


def json_paths(obj, path=()):
    """The key/index path of every value nested in a JSON document."""
    if path:
        yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from json_paths(value, path + (key,))


def mutated(doc: dict, mutations) -> dict:
    """A deep copy of doc with each (path, op, value) mutation applied in order."""
    doc = copy.deepcopy(doc)
    for path, op, value in mutations:
        holder = doc
        try:
            for key in path[:-1]:
                holder = holder[key]
            current = holder[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped this path
        if not isinstance(holder, (dict, list)):
            continue  # retyped to a string, which indexes but cannot be edited
        if op == "drop":
            del holder[path[-1]]
        elif op == "retype":  # a copy: later mutations must not edit the caller's values
            holder[path[-1]] = copy.deepcopy(value)
        elif op == "duplicate" and isinstance(holder, list):
            holder.insert(path[-1], copy.deepcopy(current))
        elif op == "shift" and isinstance(current, int):
            holder[path[-1]] = current + value if isinstance(value, int) else -current
    return doc


def mutation_lists(doc: dict, values, max_size: int = 3):
    """Strategy: one to max_size mutations of doc's paths, retyping to the given values."""
    one = st.tuples(st.sampled_from(list(json_paths(doc))), st.sampled_from(FUZZ_OPS), st.sampled_from(values))
    return st.lists(one, min_size=1, max_size=max_size)
