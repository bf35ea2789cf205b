"""JSON problem and policy files.

Problem files::

    {"mdp": {"n_states": ..., "n_actions": ...,
             "transitions": [[s, a, s', p], ...],
             "rewards": {"kind": "sa" | "sas", "values": ...},
             "initial_state": ..., "horizon": <int> | "infinite"},
     "wealth_space": {"kind": "additive" | "discounted" | "ordinal",
                      "gamma": <number>?, "classes": [<label>, ...]?,
                      "transition_table": {...}?, "w0": <label>?}}

"sa" reward values are a nested n_states x n_actions list; "sas" values
are a flat list aligned with the transitions rows.  Numeric wealth bounds
are derived from the MDP's rewards and horizon on load.

Policy files are a JSON list of ``{"t": ..., "s": ..., "intervals":
[{"from": <wealth|null>, "inclusive_from": ..., "action": <int>}]}``;
stationary policies omit "t".  A null "from" opens the bottom interval.
A policy moves between a file and its one cut table
(:class:`~qmdp.stepfun.WealthMarkovPolicy`) without a step function per rule.
Writing is one text pass over the table's arrays, one ``tolist()`` each:
every distinct cut key is formatted once and every interval is one string
format, with no dict per interval, and the text is what ``json.dumps``
writes for the entry list, byte for byte.  :func:`policy_to_payload` is
that text parsed back, so the format has one encoder.  Reading checks
every entry and interval, then builds the table in one sort and one
canonical merge.  A cut's "inclusive_from" is a JSON bool.  A (t, s)
listed more than once takes its last copy; a (t, s) with no entry takes
action 0.

All writes are whole-file atomic (write to a temp file, then rename).
"""

import itertools
import json
import math
import numbers
import os
import tempfile

import numpy as np

from .errors import ConfigurationError, ValidationError
from .mdp import Mdp
from .stepfun import WealthMarkovPolicy
from .wealth import AdditiveWealth, DiscountedWealth, OrdinalWealth


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- problems ---------------------------------------------------------------

def mdp_to_dict(m):
    s, a = np.divmod(m.pair, m.n_actions)
    rows = [list(edge) for edge in zip(s.tolist(), a.tolist(), m.succ.tolist(),
                                       m.prob.tolist())]
    if m.reward_kind == "sas":
        values = m.rewards.tolist()
    elif m.numeric_rewards:
        values = m.reward_table.tolist()
    else:
        values = [list(row) for row in m.reward_table]
    return {
        "n_states": m.n_states,
        "n_actions": m.n_actions,
        "transitions": rows,
        "rewards": {"kind": m.reward_kind, "values": values},
        "initial_state": m.initial_state,
        "horizon": "infinite" if m.horizon is None else m.horizon,
    }


def _require(d, keys, where):
    if not isinstance(d, dict):
        raise ValidationError(f"{where} is not a JSON object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValidationError([f"{where} has no {k!r}" for k in missing])


def mdp_from_dict(d):
    _require(d, ("n_states", "n_actions", "transitions", "rewards",
                 "initial_state", "horizon"), "problem 'mdp'")
    _require(d["rewards"], ("kind", "values"), "problem 'rewards'")
    horizon = d["horizon"]
    if horizon in ("infinite", "inf", None):
        horizon = None
    return Mdp.from_rows(d["n_states"], d["n_actions"], d["transitions"],
                         d["rewards"], d["initial_state"], horizon)


def space_to_dict(space):
    if isinstance(space, AdditiveWealth):
        return {"kind": "additive"}
    if isinstance(space, DiscountedWealth):
        return {"kind": "discounted", "gamma": space.gamma}
    if isinstance(space, OrdinalWealth):
        table = space.transition_table or {}
        if not all(isinstance(x, str) for x in [*space.classes, *table, *(
                r for row in table.values() for r in row)]):
            raise ConfigurationError("ordinal classes and reward labels must "
                                     "be strings, the keys of a JSON object")
        out = {"kind": "ordinal", "classes": list(space.classes)}
        if space.transition_table is not None:
            out["transition_table"] = space.transition_table
        if space.w0 != space.classes[0]:
            out["w0"] = space.w0
        return out
    raise ConfigurationError(f"unknown wealth space {space!r}")


def _is_label(x):
    """A JSON scalar: the labels and classes a dict or set can hold."""
    return x is None or isinstance(x, (str, int, float))


def space_from_dict(d, m):
    kind = d.get("kind")
    if kind == "additive":
        return AdditiveWealth.for_mdp(m)
    if kind == "discounted":
        gamma = d.get("gamma")
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
            raise ConfigurationError("discounted wealth space needs a numeric 'gamma'")
        return DiscountedWealth.for_mdp(m, gamma)
    if kind == "ordinal":
        classes, table = d.get("classes"), d.get("transition_table")
        if not (isinstance(classes, list) and all(map(_is_label, classes))):
            raise ConfigurationError("ordinal wealth space needs a list of 'classes'")
        if table is not None and not (
                isinstance(table, dict)
                and all(isinstance(row, dict) and all(map(_is_label, row.values()))
                        for row in table.values())):
            raise ConfigurationError(
                "an ordinal 'transition_table' maps each class to a "
                "{reward label: class} object")
        if not _is_label(d.get("w0")):
            raise ConfigurationError("ordinal 'w0' must be a class")
        return OrdinalWealth(classes, table, w0=d.get("w0"))
    raise ConfigurationError(
        f"wealth space kind must be additive/discounted/ordinal, got {kind!r}")


def problem_to_dict(m, space):
    return {"mdp": mdp_to_dict(m), "wealth_space": space_to_dict(space)}


def problem_from_dict(d):
    _require(d, ("mdp", "wealth_space"), "problem file")
    _require(d["wealth_space"], (), "problem 'wealth_space'")
    m = mdp_from_dict(d["mdp"])
    space = space_from_dict(d["wealth_space"], m)
    if isinstance(space, OrdinalWealth):
        # the table must move every class to a class on every reward label
        for r in m.rewards.tolist():
            try:
                space.move_table(r)
            except ConfigurationError as exc:
                raise ValidationError([str(exc)]) from None
            except TypeError:
                raise ValidationError([
                    f"reward label {r!r} cannot index the class-transition "
                    "table"]) from None
    return m, space


def save_problem(path, m, space):
    atomic_write_text(path, json.dumps(problem_to_dict(m, space)))


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


# -- policies ---------------------------------------------------------------

_HEAD = ('{"t": %d, "s": %d, "intervals": '
         '[{"from": null, "inclusive_from": true, "action": %d}')
_STATIONARY_HEAD = ('{"s": %d, "intervals": '
                    '[{"from": null, "inclusive_from": true, "action": %d}')
_CUT = '{"from": %s, "inclusive_from": %s, "action": %d}'


def _policy_text(policy, space):
    """The policy file, ``json.dumps`` of its entry list, byte for byte.

    One text pass over the table's arrays.  Each distinct cut key is
    formatted once, told apart from the others by its bits (so -0.0 is not
    0.0): a finite float as ``float.__repr__`` writes it, as ``json`` does,
    and any other wealth value (an infinity, an ordinal label) by
    ``json.dumps``.
    """
    c, S = policy.table, policy.n_states
    bits = c.x.view(np.int64).tolist()
    distinct = dict(zip(bits, c.x.tolist()))
    text = dict(zip(distinct, [
        float.__repr__(w) if type(w) is float and math.isfinite(w)
        else json.dumps(w) for w in map(space.unkey, distinct.values())]))
    cuts = [_CUT % (text[b], "false" if e else "true", a)
            for b, e, a in zip(bits, c.e.tolist(), c.v.tolist())]
    base = c.base.tolist()
    if policy.stationary:
        heads = [_STATIONARY_HEAD % sa for sa in enumerate(base)]
    else:
        steps = itertools.product(range(len(base) // S), range(S))
        heads = [_HEAD % (t, s, a) for (t, s), a in zip(steps, base)]
    off = c.off.tolist()
    return "[%s]" % ", ".join([
        "%s]}" % ", ".join([head, *cuts[j:k]])
        for head, j, k in zip(heads, off, off[1:])])


def policy_to_payload(policy, space):
    """The policy file's entry list: its text, parsed back."""
    return json.loads(_policy_text(policy, space))


def _is_int(x):
    """An integer and not a bool; JSON numbers take the fast exact check."""
    return type(x) is int or (not isinstance(x, bool)
                               and isinstance(x, numbers.Integral))


def _intervals_to_cuts(intervals, space):
    """``(base, keys, inclusive, actions)`` of one entry's intervals."""
    if not isinstance(intervals, list):
        # a string or a dict iterates too: "" and {} would read as action 0
        raise ConfigurationError(
            f"policy intervals {intervals!r} are not a list")
    base = 0
    keys, inclusive, actions = [], [], []
    for item in intervals:
        a = item["action"]
        if not _is_int(a):
            raise ConfigurationError(f"policy action {a!r} is not an integer")
        if not -(1 << 63) <= a < 1 << 63:
            # every copy of a (t, s) is checked, the replaced ones too
            raise ConfigurationError(f"policy action {a} does not fit int64")
        if item["from"] is None:
            base = a
            continue
        inc = item["inclusive_from"]
        if not isinstance(inc, (bool, np.bool_)):
            # bool() would read "false" as inclusive and 0 or null as not
            raise ConfigurationError(
                f"policy inclusive_from {inc!r} is not true or false")
        keys.append(space.key(item["from"]))
        inclusive.append(bool(inc))
        actions.append(a)
    return base, keys, inclusive, actions


def policy_from_payload(payload, space, n_states):
    if not isinstance(payload, list) or not payload:
        raise ConfigurationError("a policy payload is a non-empty list of entries")
    try:
        return _policy_from_entries(payload, space, n_states)
    except KeyError as exc:
        raise ConfigurationError(
            f"policy entry without {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ConfigurationError(f"malformed policy entry: {exc}") from None


def _entry_index(entry, name, stop):
    i = entry[name]
    if not _is_int(i) or not 0 <= i < stop:
        raise ConfigurationError(
            f"policy entry {name}={i!r} is not an integer in [0, {stop})")
    return i


def _policy_from_entries(payload, space, n_states):
    stationary = "t" not in payload[0]
    if stationary and any("t" in entry for entry in payload):
        raise ConfigurationError("policy entries mix rules with and without 't'")
    # a policy lists every step it covers, so no step lies past its
    # entry count
    steps = [0 if stationary else _entry_index(entry, "t", len(payload))
             for entry in payload]
    rules = {}
    for t, entry in zip(steps, payload):
        s = _entry_index(entry, "s", n_states)
        # a later copy of a (t, s) replaces an earlier one
        rules[t * n_states + s] = _intervals_to_cuts(entry["intervals"], space)
    base = np.zeros((max(steps) + 1) * n_states, dtype=np.int64)
    base[list(rules)] = [r[0] for r in rules.values()]
    seg = np.repeat(np.fromiter(rules, dtype=np.intp, count=len(rules)),
                    [len(r[1]) for r in rules.values()])
    x, inclusive, actions = ([v for r in rules.values() for v in r[i]]
                             for i in (1, 2, 3))
    return WealthMarkovPolicy.from_cuts(
        base, seg, np.array(x, dtype=np.float64), np.array(inclusive, dtype=bool),
        np.array(actions, dtype=np.int64), n_states, stationary)


def save_policy(path, policy, space):
    atomic_write_text(path, _policy_text(policy, space))


def load_policy(path, space, n_states):
    with open(path) as fh:
        return policy_from_payload(json.load(fh), space, n_states)
