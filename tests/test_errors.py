import inspect
import pickle

import pytest

from semcom import errors

CLASSES = [c for c in vars(errors).values() if inspect.isclass(c) and issubclass(c, errors.SemcomError)]
# the keyword arguments of every error whose constructor takes more than a message
EXTRA = {errors.ParseError: {"offset": 17}, errors.ValidationFailedError: {"quality": 0.5}}


def test_every_error_with_its_own_constructor_is_built_with_its_arguments():
    own_init = {c for c in CLASSES if "__init__" in vars(c)}
    assert own_init == set(EXTRA)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_error_round_trips_through_pickle(cls, protocol):
    err = cls("bad input", **EXTRA.get(cls, {}))
    back = pickle.loads(pickle.dumps(err, protocol))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_round_trips_keep_the_attributes_and_the_message_as_built():
    parse = pickle.loads(pickle.dumps(errors.ParseError("bad header", offset=17)))
    assert (str(parse), parse.offset) == ("bad header (byte offset 17)", 17)
    parse = pickle.loads(pickle.dumps(errors.ParseError("bad header")))
    assert (str(parse), parse.offset) == ("bad header", None)
    failed = pickle.loads(pickle.dumps(errors.ValidationFailedError("no factor", quality=0.25)))
    assert (str(failed), failed.quality) == ("no factor", 0.25)
