"""RPR004 fixture: a serving constructor growing a bare option and a
keyword catch-all beside EngineConfig."""


class EngineConfig:
    pass


class ToyEngine:
    def __init__(self, model, *, config=None, shiny_new_knob: int = 3, **options) -> None:
        self.model = model
        self.config = config or EngineConfig()
        self.shiny_new_knob = shiny_new_knob
        self.options = options
