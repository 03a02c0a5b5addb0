package nested // want `package nested has no package doc comment`
