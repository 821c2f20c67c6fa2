import chainsynth
import chainsynth.engines


def test_every_exported_name_resolves():
    for module in (chainsynth, chainsynth.engines):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
