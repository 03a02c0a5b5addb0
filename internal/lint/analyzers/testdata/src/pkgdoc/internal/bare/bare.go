package bare // want `package bare has no package doc comment; add one beginning "Package bare "`
